"""The homtrees benchmark: one workload per run, results as one JSON line.

    python3 bench/run.py --workload free-cold --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): free-cold, free-warm, ueg-levels,
cli-calls.  A run sets up, then repeats whole rounds of the workload's
fixed job list, one job at a time, while another round still fits in
--seconds and until at least MIN_JOBS jobs have run.  After each round
every answer is checked against the reference algebra in bench/oracle.py.

--trace 0 prints the end-to-end metrics; --trace 1 installs the span
wrappers of bench/spans.py and prints the per-layer metrics, per round.
The last line of standard output is the result object; a copy and, when
tracing, the spans go to bench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 3
MIN_JOBS = 100  # so that at least ten job times lie beyond job_p90_ms
WORKLOADS = ("free-cold", "free-warm", "ueg-levels", "cli-calls")


def load_workload(name: str, seed: int, tracer):
    if name in ("free-cold", "free-warm"):
        import free

        return free.FreeWorkload(seed, warm=name == "free-warm")
    if name == "ueg-levels":
        import uenv

        return uenv.UegLevels(seed)
    import clicalls

    return clicalls.CliCalls(seed, ROOT, tracer)


def measure(workload, seconds: float, tracer):
    """Run whole rounds; return round walls, job walls and the check tally."""
    from common import FAILED

    rounds, job_times = [], []
    attempted = failed = 0
    problems = []  # wrong answers
    errors = []  # jobs that raised
    phase_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        workload.before_round()
        results = []
        if tracer:
            tracer.on = True
        timed_start = time.perf_counter()
        for index, job in enumerate(workload.jobs):
            if tracer:
                tracer.job = index
            t0 = time.perf_counter()
            try:
                results.append((job.run(), None))
            except Exception as exc:  # a job that raises counts as failed
                results.append((None, exc))
            job_times.append(time.perf_counter() - t0)
        rounds.append(time.perf_counter() - timed_start)
        if tracer:
            tracer.on = False
        for job, (result, error) in zip(workload.jobs, results):
            attempted += 1
            if error is not None:
                failed += 1
                errors.append("%s raised %r" % (job.name, error))
                continue
            try:
                verdict = job.check(result)
            except Exception as exc:  # an answer of the wrong shape
                verdict = "check raised %r" % exc
            if verdict is FAILED:
                failed += 1
            elif verdict is not None:
                problems.append("%s: %s" % (job.name, verdict))
        last = time.perf_counter() - round_start
        if time.perf_counter() - phase_start + last > seconds and len(job_times) >= MIN_JOBS:
            return rounds, job_times, attempted, failed, problems, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homtrees" / "__init__.py").is_file():
        sys.stderr.write("bench: no homtrees sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import spans

    tracer = spans.Tracer() if args.trace else None
    workload = load_workload(args.workload, args.seed, tracer)
    imports_s = time.perf_counter() - START
    reps = []
    for _ in range(SETUP_REPS):
        workload.clear()
        t0 = time.perf_counter()
        workload.prepare()
        reps.append(time.perf_counter() - t0)
    setup_s = imports_s + statistics.median(reps)

    if tracer:
        workload.trace_setup()
        spans.install(tracer)
    rounds, job_times, attempted, failed, problems, errors = measure(workload, args.seconds, tracer)
    for line in (problems + errors)[:20]:
        sys.stderr.write("bench: %s\n" % line)

    if tracer:
        n = len(rounds)
        wall = sum(rounds) / n
        stats = tracer.stats()
        values = spans.layer_metrics(stats, 1 / n)
        values["trace.wall_s"] = wall
        values["trace.outside_s"] = wall - sum(values["%s.self_s" % layer] for layer in spans.LAYERS)
        values.update(workload.trace_metrics())
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "solve_s": statistics.median(rounds),
            "job_p50_ms": statistics.median(job_times) * 1e3,
            "job_p90_ms": statistics.quantiles(job_times, n=10)[8] * 1e3,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        listed = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = dict(result, rounds=rounds, job_times=job_times, setup_reps=reps, imports_s=imports_s)
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(record) + "\n")
    if tracer:
        records = [dict(zip(("job", "id", "name", "start_ns", "end_ns", "parent"), span))
                   for span in tracer.spans]
        (OUT / ("trace-%s.json" % tag)).write_text(json.dumps({"rounds": len(rounds), "spans": records}))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload cli-calls: what one interactive answer costs a user.

A corpus of `--machine` calls covering all nine commands, each in a
fresh interpreter, run one after another; a round is one pass through
the corpus, and a run makes at least five (100 calls).  Where the README shows an
example, the call is that example and its answer is checked against
the README; the other calls are seeded and checked against the
reference algebra.

One call is a known fault, kept on purpose: `nf` on an expression
nested 1200 deep dies with an uncaught RecursionError and exit 1,
although exit 1 means "a property definitely fails".  It counts as
passed only when it exits 3 (a stated budget) with no traceback; until
then it is counted as failed, once per round.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import oracle as O
from common import FAILED, Job, Workload
from free import Inputs
from spans import SPAN_CAP

CALL_TIMEOUT_S = 60
DEEP = 1200
SL2 = "tests/data/sl2_twisted.json"
BROKEN = "tests/data/broken_alpha.json"
COMMANDS = ("validate", "nf", "equal", "coproduct", "antipode", "antipode-index", "exp",
            "grouplike-check", "verify")


def exp_orders(s: Fraction, cap: int) -> list:
    """exp̂_p(s) for p ≤ cap, as the sequence file's coefficient texts."""
    orders = []
    for p in range(cap + 1):
        row = ["1"]
        for m in range(1, p + 1):
            row.append("%s*%s" % (s ** m / factorial(m), O.render(O.right_fern_weighted(m, p))))
        orders.append(row)
    return orders


def tensor_terms(terms: list) -> dict:
    return {(left, right): Fraction(c) for left, right, c in terms}


def multiplicativity_witness(data: dict):
    """First basis pair (i < j) where α[e_i, e_j] ≠ [α e_i, α e_j], with α diagonal."""
    basis = data["basis"]
    alpha = [Fraction(data["alpha"][i][i]) for i in range(len(basis))]
    bracket = {}
    for key, value in data["bracket"].items():
        x, y = key.split(",")
        bracket[(basis.index(x), basis.index(y))] = {basis.index(z): Fraction(c) for z, c in value.items()}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            value = bracket.get((i, j), {})
            if any(c * alpha[k] != c * alpha[i] * alpha[j] for k, c in value.items()):
                return [i, j]
    return None


class CliCalls(Workload):
    def __init__(self, seed: int, root, tracer):
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.out = root / "bench" / "out" / ("cli-seed%d" % seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.command_walls: dict = {}
        self.extra: dict = {}

    # ------------------------------------------------------------ processes

    def call(self, argv: list):
        """Run one CLI call; traced through cli_child.py when tracing."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "homtrees.cli"] + argv
        else:
            stats = self.out / "child-stats.json"
            stats.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(stats)] + argv
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            data = json.loads(stats.read_text())
            room = SPAN_CAP - len(self.tracer.spans)
            self.tracer.spans.extend([self.tracer.job] + span for span in data.pop("spans")[:room])
            self.tracer.merge(data)
            self.command_walls.setdefault(argv[1], []).append(wall)
        return done.returncode, done.stdout, done.stderr

    def time_python(self, code: str, times: int = 5) -> float:
        walls = []
        for _ in range(times):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    # --------------------------------------------------------------- corpus

    def clear(self):
        pass  # nothing of the program lives in this process

    def prepare(self):
        rng = random.Random(self.seed)
        self.out.mkdir(parents=True, exist_ok=True)
        corpus = []

        def add(argv, check):
            corpus.append((argv, check))

        def machine(argv):
            return ["--machine"] + argv

        def answer(code, stdout, stderr, want_code):
            if code != want_code or "Traceback" in stderr:
                return None, "exit %d (want %d): %s" % (code, want_code, stderr.strip()[-200:])
            return json.loads(stdout), None

        def expect(want_code, fn):
            def check(result):
                data, problem = answer(*result, want_code)
                return problem or fn(data)
            return check

        # README examples
        add(machine(["nf", "--expr", "((0 0) 01)"]),
            expect(0, lambda d: None if d["normal_form"] == "(1 (0 0))" else "nf %s" % d))
        add(machine(["equal", "--lhs", "((0 0) 01)", "--rhs", "(1 (0 0))"]),
            expect(0, lambda d: None if d["verdict"] == "Equal"
                   and d["classes"] == classes_of({"((0 0) 01)": 1, "(1 (0 0))": -1}) else "equal %s" % d))
        add(machine(["equal", "--lhs", "0", "--rhs", "01"]),
            expect(1, lambda d: None if d["verdict"] == "NotEqual" and d["witness_class"] == [1, [0]]
                   and d["residual"] == "0" else "equal %s" % d))
        add(machine(["equal", "--algebra", SL2, "--lhs", "(0:E 0:F) - (0:F 0:E)", "--rhs", "0:H"]),
            expect(0, lambda d: None if d["verdict"] == "Equal" and d["level"] == 3 else "equal %s" % d))
        add(machine(["coproduct", "--expr", "(0 0)"]),
            expect(0, lambda d: None if tensor_terms(d["terms"]) == {
                ("(0 0)", "1"): 1, ("01", "01"): 2, ("1", "(0 0)"): 1} else "coproduct %s" % d))
        add(machine(["antipode", "--expr", "(0 (0 0))"]),
            expect(0, lambda d: None if d["antipode"] == "-((0 0) 0)" else "antipode %s" % d))
        add(machine(["exp", "--scalar", "1/2", "--order", "2"]),
            expect(0, lambda d: None if d["orders"] == [["1"], ["1", "1/2*0"], ["1", "1/2*01", "1/8*(0 0)"]]
                   else "exp %s" % d))
        add(machine(["exp", "--scalar", "1/2", "--order", "2", "--algebra", SL2, "--element", "E"]),
            expect(0, lambda d: None if d["orders"] == [["1"], ["1", "1/2*0:E"], ["1", "0:E", "1/8*(0:E 0:E)"]]
                   and d["algebra"]["name"] == "sl2-twisted" else "exp %s" % d))
        add(machine(["validate", SL2]),
            expect(0, lambda d: None if d == {"command": "validate", "ok": True, "name": "sl2-twisted", "dim": 3}
                   else "validate %s" % d))
        add(machine(["verify", "--suite", "trees"]),
            expect(0, lambda d: None if d["verdict"] == "pass" and [c["number"] for c in d["criteria"]] == [1, 2]
                   else "verify %s" % d["verdict"]))

        # a failing algebra: the violated law is found by the benchmark itself
        with open(self.root / BROKEN, encoding="utf-8") as handle:
            violated = multiplicativity_witness(json.load(handle))
        add(machine(["validate", BROKEN]),
            expect(1, lambda d: None if not d["ok"] and d["law"] == "multiplicativity"
                   and d["witness"] == violated else "validate %s" % d))

        # seeded calls, checked against the reference algebra
        inputs = Inputs(rng)
        t = inputs.tree(rng.randint(5, 6))
        p = {O.render(t): inputs.coeff()}
        O.padd(p, {O.render(inputs.tree(rng.randint(4, 6))): inputs.coeff()})
        add(machine(["nf", "--expr", poly_text(p)]),
            expect(0, lambda d: None if O.reduce_poly(O.parse_poly_text(d["normal_form"])) == O.reduce_poly(p)
                   else "nf %s is not equal to its input" % d["normal_form"]))

        t = inputs.tree(rng.randint(5, 6))
        c = inputs.coeff()
        lhs, rhs = {O.render(t): c}, {O.render(inputs.walk(t)): c}
        classes = classes_of(O.padd(dict(lhs), rhs, -1))
        add(machine(["equal", "--lhs", poly_text(lhs), "--rhs", poly_text(rhs)]),
            expect(0, lambda d: None if d["verdict"] == "Equal" and d["classes"] == classes else "equal %s" % d))
        unequal = O.padd(dict(rhs), {O.render(inputs.walk(t)): inputs.coeff()})
        sig = O.signature(t)
        diff = O.padd(dict(lhs), unequal, -1)

        def witness(d):
            residual = O.parse_poly_text(d["residual"])
            if d["verdict"] != "NotEqual" or d["witness_class"] != [len(sig), list(sig)]:
                return "equal %s" % d
            if sum(residual.values()) != sum(diff.values()) or O.reduce_poly(residual) != O.reduce_poly(diff):
                return "residual %s is not the class component reduced" % d["residual"]
            return None

        add(machine(["equal", "--lhs", poly_text(lhs), "--rhs", poly_text(unequal)]), expect(1, witness))

        tree = O.render(inputs.tree(rng.randint(4, 5)))
        add(machine(["coproduct", "--expr", tree]),
            expect(0, lambda d: None if tensor_terms(d["terms"]) == O.coproduct({tree: 1})
                   else "coproduct of %s" % tree))
        p2 = {O.render(inputs.tree(rng.randint(3, 6))): inputs.coeff(), O.render(inputs.tree(2)): inputs.coeff()}
        add(machine(["antipode", "--expr", poly_text(p2)]),
            expect(0, lambda d: None if O.parse_poly_text(d["antipode"]) == O.antipode_poly(p2)
                   else "antipode %s" % d["antipode"]))
        small = O.render(inputs.tree(rng.randint(2, 4)))
        add(machine(["antipode-index", "--expr", small]),
            expect(0, lambda d: None if d["found"] and d["index"] == 0 else "index of %s: %s" % (small, d)))

        s = rng.choice((Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2, 3)))
        good = self.out / "exp.json"
        good.write_text(json.dumps({"bound": 0, "orders": exp_orders(s, 3)}))
        add(machine(["grouplike-check", "--file", str(good)]),
            expect(0, lambda d: None if d == {"command": "grouplike-check", "ok": True, "cap": 3, "bound": 0}
                   else "grouplike-check %s" % d))
        orders = exp_orders(s, 3)
        orders[2][2] = "%s*%s" % (2 * s * s / 2, O.render(O.right_fern_weighted(2, 2)))
        broken = self.out / "exp-broken.json"
        broken.write_text(json.dumps({"bound": 0, "orders": orders}))
        add(machine(["grouplike-check", "--file", str(broken)]),
            expect(1, lambda d: None if not d["ok"] and d["clause"] == "a" and d["p"] == 2
                   else "grouplike-check %s" % d))

        deep = "(0 " * DEEP + "0" + ")" * DEEP

        def deep_check(result):
            code, _, stderr = result
            return None if code == 3 and "Traceback" not in stderr else FAILED

        add(machine(["nf", "--expr", deep]), deep_check)

        self.jobs = [Job(argv[1], (lambda argv=argv: self.call(argv)), check)
                     for argv, check in corpus]
        # the first interpreter start of a checkout compiles and caches bytecode
        code, _, stderr = self.call(machine(["nf", "--expr", "0"]))
        if code:
            raise RuntimeError("homtrees does not start: %s" % stderr.strip()[-300:])

    def peak_rss_mb(self) -> float:
        """The largest resident set of any CLI call waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def trace_setup(self):
        interpreter = self.time_python("pass")
        self.extra = {
            "cli.interpreter_ms": interpreter * 1e3,
            "cli.import_ms": (self.time_python("import homtrees.cli") - interpreter) * 1e3,
        }

    def trace_metrics(self) -> dict:
        out = dict(self.extra)
        for command in COMMANDS:
            walls = self.command_walls.get(command)
            out["cli.%s.p50_ms" % command] = statistics.median(walls) * 1e3 if walls else 0.0
        return out


def classes_of(p: dict) -> list:
    """The graded classes of p, as the CLI prints them."""
    return sorted([len(sig), list(sig)] for sig in {O.class_of_key(key) for key in p})


def poly_text(p: dict) -> str:
    """A polynomial in the CLI's input grammar: `c*tree` terms joined by + and -."""
    parts = []
    for key in sorted(p):
        c = p[key]
        body = key if abs(c) == 1 else "%s*%s" % (abs(c), key)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]

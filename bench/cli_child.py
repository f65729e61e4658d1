"""Run one homtrees CLI call with the span wrappers of spans.py installed.

    python3 bench/cli_child.py STATS_FILE ARG...

ARG... are the CLI's own arguments.  The call behaves as
`python3 -m homtrees.cli ARG...` does, exit code and output included;
the tracer's totals and spans are written to STATS_FILE when it ends.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from homtrees import cli

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.on = True
    try:
        code = cli.run(argv)
    finally:
        tracer.on = False
        Path(stats_path).write_text(json.dumps(dict(tracer.stats(), spans=tracer.spans)))
    sys.exit(code)


if __name__ == "__main__":
    main()

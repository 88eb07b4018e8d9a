"""One set-up measurement, run by run.py in a fresh interpreter:

    python3 perfbench/setup_probe.py <game.json> <report.json> <limit_s>
    python3 perfbench/setup_probe.py --reference

The first form prints the seconds from the start of `import mpgames.cli` to
the end of one warm-up operation (solve, then certify its report).  The
second prints the seconds a fresh interpreter takes to import numpy, mpmath
and click, the reference that run.py divides the first by: both are mostly
file and memory-system work, which a pure-Python loop does not track.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cliops import invoke  # noqa: E402


def reference():
    t0 = perf_counter()
    import click  # noqa: F401
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    print(perf_counter() - t0)


def main():
    if sys.argv[1:] == ["--reference"]:
        return reference()
    game, report, limit_s = sys.argv[1], sys.argv[2], float(sys.argv[3])
    t0 = perf_counter()
    import mpgames.cli

    code, out, err = invoke(mpgames.cli.main,
                            ["solve", game, "--mode", "full", "--json"], limit_s)
    if code != 0:
        sys.exit(f"warm-up solve failed (exit {code}): {err}")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(out)
    code, _, err = invoke(mpgames.cli.main, ["certify", game, report], limit_s)
    if code != 0:
        sys.exit(f"warm-up certify failed (exit {code}): {err}")
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()

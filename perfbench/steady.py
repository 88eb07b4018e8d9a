"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workloads smpg-small smpg-wide \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--record perfbench/steadiness.json]

Runs `run.py` once per (workload, seed), one run at a time, and prints per
metric the median, the quartiles and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median, next to the metric's bound from BENCHMARK.json.  `--record`
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--record", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"seconds": spec["run_seconds"], "runs": {}, "summary": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            result["seed"] = seed
            runs.append(result)
            print(f"{wl} seed {seed}: wall {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "bound": bounds.get(name)}
            bound = bounds.get(name)
            spread = summary[name]["spread"]
            print(f"  {name:44s} median {med:12.6f}  q1 {q1:12.6f}  "
                  f"q3 {q3:12.6f}  spread "
                  + (f"{spread:.4f}" if spread is not None else "n/a")
                  + (f"  bound {bound}" if bound is not None else ""),
                  flush=True)
        record["runs"][wl] = runs
        record["summary"][wl] = summary
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()

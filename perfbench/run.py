"""The mpgames benchmark.

    python3 perfbench/run.py --workload smpg-small --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a source checkout, against `src/` of that
checkout.  Each operation takes the user's path, in-process: `mpgames solve
<game> --mode full --json` writes a report, then `mpgames certify <game>
<report>` re-checks it.  Operations run one at a time (a closed loop, one
client, one thread) in passes over the workload's games, for `--seconds`
seconds after a set-up and one warm-up operation.  Every answer is checked
against an exact reference.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run (see spans.py) and the tracing overhead.  A human-readable
summary, the environment, and every failed operation are printed before it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
# the reference probe's usual time on the host where the benchmark was
# defined (a 2-vCPU Intel Xeon at 2.0 GHz, Python 3.11), as calib.C0_S
SETUP_REF_S = 0.15
TRIM_SHARE = 0.02  # share of the bulk draws left out of a pass total


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# one operation


def _last_line(text) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:160] if lines else ""


def run_op(main, invoke, game, game_path, report_path, limit_s):
    """Solve then certify one game.  Returns (solve s, certify s or None,
    failure or None)."""
    t0 = perf_counter()
    code, out, err = invoke(main, ["solve", str(game_path), "--mode", "full",
                                   "--json"], limit_s)
    if code == 0:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(out)
    solve_s = perf_counter() - t0
    refusal = game.ref.get("refusal")
    if refusal is not None:
        # a recorded budget refusal: the expected outcome, not a failure
        if code == refusal["exit"] and "exceeds budget" in err:
            return solve_s, None, None
        return solve_s, None, f"expected budget refusal, got exit {code}"
    if code != 0:
        return solve_s, None, f"solve exit {code}: {_last_line(err)}"
    t0 = perf_counter()
    ccode, _, cerr = invoke(main, ["certify", str(game_path),
                                   str(report_path)], limit_s)
    certify_s = perf_counter() - t0
    if ccode != 0:
        return solve_s, certify_s, f"certify exit {ccode}: {_last_line(cerr)}"
    try:
        why = refs.check_answer(game.obj["type"], game.ref, json.loads(out))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        why = f"unreadable report: {exc}"
    return solve_s, certify_s, why


def run_passes(ctx, seconds, tracer=None):
    """Closed loop of whole passes over the workload's games, at least one,
    stopping when another pass would end more than half a pass after
    `seconds`.  Each record is (solve s, certify s or None, failure or None,
    calibration reference s)."""
    main, invoke, work, paths, cal = ctx
    passes = []
    durations = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        records = []
        for k, (game, gpath, rpath) in enumerate(paths):
            if tracer is not None:
                tracer.op = len(passes) * len(paths) + k
            ref = cal.ref()
            records.append(run_op(main, invoke, game, gpath, rpath,
                                  work.limit_s) + (ref,))
        durations.append(perf_counter() - t0)
        passes.append(records)
        if perf_counter() - start + statistics.median(durations) / 2 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def calibrated(passes, column):
    """Per game, the median over the passes of one timing column in
    calibrated seconds (see calib.py); None for a game without that
    timing."""
    out = []
    for k in range(len(passes[0])):
        vals = [p[k][column] / p[k][3] * calib.C0_S for p in passes
                if p[k][column] is not None]
        out.append(statistics.median(vals) if vals else None)
    return out


def pass_total(times, bulk) -> float:
    """Time of one pass from per-game times: the sum over the fixed games,
    plus the bulk draws' count times their mean with the slowest
    ceil(TRIM_SHARE * count) left out.  The trim keeps one heavy-tailed
    draw from swinging the total (on entropy-mixed about one default draw
    in 300 takes 0.2-1.5 s against a median of 3 ms), while a change to
    any of the other draws, the slower half included, moves it."""
    fixed = [t for t, b in zip(times, bulk) if not b]
    drawn = sorted(t for t, b in zip(times, bulk) if b)
    total = sum(fixed)
    if drawn:
        kept = drawn[:len(drawn) - math.ceil(TRIM_SHARE * len(drawn))]
        total += len(drawn) * statistics.mean(kept)
    return total


def end_to_end(passes, bulk) -> dict:
    per_game = calibrated(passes, 0)
    solves = sorted(per_game)
    n = len(solves)
    p90_rank = math.ceil(0.9 * n)
    certified = [(t, b) for t, b in zip(calibrated(passes, 1), bulk)
                 if t is not None]
    return {
        "solve_s": pass_total(per_game, bulk),
        "solve_p50_ms": 1e3 * statistics.median(solves),
        "certify_s": pass_total(*zip(*certified)),
        "games": n,
        # the 90th percentile is reported only with ten games beyond it
        "solve_p90_ms": 1e3 * solves[p90_rank - 1] if n - p90_rank >= 10
        else None,
    }


def _probe(args) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def measure_setup(work, warm_path) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time from the
    start of `import mpgames.cli` to the end of one warm-up solve +
    certify.  Each is divided by the mean of the reference probes (see
    setup_probe.py) run just before and just after it, and scaled by
    SETUP_REF_S."""
    args = [str(warm_path), str(warm_path.with_suffix(".report.json")),
            str(work.limit_s)]
    ref = [_probe(["--reference"])]
    ratios = []
    for _ in range(SETUP_REPEATS):
        took = _probe(args)
        ref.append(_probe(["--reference"]))
        ratios.append(took / statistics.mean(ref[-2:]))
    return statistics.median(ratios) * SETUP_REF_S


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "mpgames" / "__init__.py").is_file():
        fail(f"no mpgames sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.workload not in wl.NAMES:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(wl.NAMES)}")

    # inputs: generated and written before anything is timed
    work = wl.build(args.workload, args.seed)
    wdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    try:
        warm_path = wdir / "warmup.json"
        warm_path.write_text(json.dumps(work.warmup))
        paths = []
        for k, game in enumerate(work.games):
            gpath = wdir / f"{k:04d}-{game.gid}.json"
            gpath.write_text(json.dumps(game.obj))
            paths.append((game, gpath, gpath.with_suffix(".report.json")))
        setup_s = None if args.trace else measure_setup(work, warm_path)
        result = run(args, work, paths, warm_path, setup_s)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    print(json.dumps(result))


def run(args, work, paths, warm_path, setup_s) -> dict:
    import mpgames.cli
    import mpgames

    if Path(mpgames.__file__).resolve().parent != SRC / "mpgames":
        fail(f"imported mpgames from {mpgames.__file__}, not from {SRC}")
    from cliops import invoke

    main = mpgames.cli.main
    code, out, err = invoke(main, ["solve", str(warm_path), "--json"],
                            work.limit_s)
    if code == 0:
        report = warm_path.with_suffix(".report.json")
        report.write_text(out)
        code, _, err = invoke(main, ["certify", str(warm_path), str(report)],
                              work.limit_s)
    if code != 0:
        fail(f"warm-up operation failed (exit {code}): {err.strip()}")
    cal = calib.Calibrator()
    ctx = (main, invoke, work, paths, cal)
    bulk = [game.bulk for game in work.games]
    env = environment()
    print(f"# mpgames benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {len(paths)} games per pass; closed loop, one client, "
          f"one thread; per-operation limit {work.limit_s:g} s")

    if args.trace:
        import spans

        untraced = run_passes(ctx, args.seconds / 3)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(ctx, args.seconds - args.seconds / 3, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(span_file)
        metrics = tracer.layer_metrics(len(traced))
        base = end_to_end(untraced, bulk)["solve_s"]
        overhead = end_to_end(traced, bulk)["solve_s"] - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / base
        passes = untraced + traced
        print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
              f"{len(tracer.span_start)} spans written to "
              f"{span_file.relative_to(ROOT)}")
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        for name in sorted(metrics):
            print(f"{name:60s} {metrics[name]:16.6f} {units[name]}")
        reported = {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}
    else:
        passes = run_passes(ctx, args.seconds)
        e2e = end_to_end(passes, bulk)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (e2e["solve_s"], "s"),
            "solve_p50_ms": (e2e["solve_p50_ms"], "ms"),
            "certify_s": (e2e["certify_s"], "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(f"# passes: {len(passes)}; latency percentiles over "
              f"{e2e['games']} games, each timed {len(passes)} times")
        for name, (value, unit) in metrics.items():
            print(f"{name:14s} {value:14.6f} {unit}")
        p90 = e2e["solve_p90_ms"]
        print(f"{'solve_p90_ms':14s} "
              + (f"{p90:14.6f} ms" if p90 is not None else
                 f"{'n/a':>14s}    (fewer than ten games beyond it)"))

    print(f"# calibration loop: median {1e3 * statistics.median(cal.all):.3f}"
          f" ms over {len(cal.all)} samples (C0 = {1e3 * calib.C0_S:g} ms)")
    attempted = sum(len(p) for p in passes)
    failures = [(i, work.games[k].gid, rec[2]) for i, p in enumerate(passes)
                for k, rec in enumerate(p) if rec[2] is not None]
    print(f"{'fail_frac':14s} {len(failures) / attempted:14.6f} ratio "
          f"({len(failures)} of {attempted})")
    for i, gid, why in failures:
        print(f"FAILED pass {i} game {gid}: {why}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }


if __name__ == "__main__":
    main()

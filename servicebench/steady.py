"""Steadiness check: run every workload N times, alternating, and compare.

Usage, from the root of a checkout::

    python3 servicebench/steady.py --runs 10 [--workloads read-hot,restart] [--first-seed 1]

Run ``i`` of every workload uses seed ``first_seed + i``; the workloads
take turns, so drift in the machine's speed lands on all of them.  For
each end-to-end metric of each workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread -- the
distance between the quartiles as a share of the median -- beside the
metric's bound in ``BENCHMARK.json``.  Each run's calibration loop
(printed by ``run.py`` beside its result) is recorded too, so a set of
runs made while the machine was slow shows as such.  ``--out`` keeps
every run's raw result as JSON.  Exits nonzero when a run fails, a
spread other than ``setup_s``'s exceeds its bound, or the share of
failed operations differs between runs of one workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["side"] = json.loads(lines[-2])
    result["seed"] = seed
    result["elapsed_s"] = time.monotonic() - started
    return result


def summarize(workload: str, runs: list, bounds: dict) -> bool:
    ok = True
    shares = {run["failed"] / run["attempted"] for run in runs}
    calibration = [run["side"]["calibration_s"] for run in runs]
    print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
          f"calibration loop {min(calibration):.3f}-{max(calibration):.3f} s")
    if len(shares) != 1:
        ok = False
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread > bound and name != "setup_s":
            ok = False
            flag = "  OVER"
        elif spread > bound / 3:
            flag = "  >1/3"
        raw = [run["side"]["as_measured"].get(name) for run in runs]
        if None not in raw:
            r1, r2, r3 = statistics.quantiles(raw, n=4)
            flag += f"  (as measured: median {r2:.4g}, spread {(r3 - r1) / r2:.3f})"
        print(f"  {name:24} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:7.3f} {bound:6.2f}{flag}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {workload: [] for workload in workloads}
    for index in range(args.runs):
        for workload in workloads:
            seed = args.first_seed + index
            result = one_run(workload, seed, spec["run_seconds"])
            results[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: "
                  f"calibration {result['side']['calibration_s']:.3f} s, "
                  f"took {result['elapsed_s']:.0f} s",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    ok = all([summarize(w, results[w], bounds) for w in workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

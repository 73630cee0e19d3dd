"""Service benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 servicebench/run.py --workload read-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload against real ``repro serve`` processes
and prints the end-to-end metrics; ``--trace 1`` replays the same
generated requests through each layer in process and prints the
per-layer metrics (see ``layers.py``).  ``--smoke`` shrinks every input
so a run takes seconds.  The last line of standard output is always the
result object; the exit code is nonzero when any answer was wrong or
any acknowledged event went missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("read-hot", "ingest-mixed", "restart")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15,
                        help="accepted and ignored: the work per run is "
                        "fixed (see SIZES in workloads.py)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every check, none of the timing")
    parser.add_argument("--inject", choices=("flip", "drop-event", "drop-session"),
                        help="self-test only: break one output the checks must catch")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servicebench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servicebench.harness import WORK, Ledger, calibrate, pin
    from servicebench.workloads import RUNNERS, make_plan

    pin()
    calibration = calibrate()
    plan = make_plan(args.workload, args.seed, args.smoke)
    ledger = Ledger()
    # The inputs and the oracle's answers are a large, long-lived heap:
    # freeze it so no collection rescans it inside a timed call.  The
    # plain run's process is only the client, so it also runs without
    # the cycle collector (as timeit does); the traced run hosts the
    # service in process and leaves the program's collector alone.
    gc.freeze()
    if not args.trace:
        gc.disable()
    try:
        if args.trace:
            from servicebench.layers import run_traced

            metrics, beside = run_traced(plan, ledger, args)
        else:
            metrics, beside = RUNNERS[args.workload](plan, ledger, args.inject)
    finally:
        gc.enable()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"calibration_s": round(calibration, 6),
                      "calibration_after_s": round(calibrate(), 6),
                      "ops": ledger.report(), **beside}))
    for line in ledger.errors + ledger.wrong[:20]:
        print(f"servicebench: {line}", file=sys.stderr)
    attempted = sum(ledger.attempted.values())
    failed = sum(ledger.failed.values())
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if ledger.correct and attempted else 1


if __name__ == "__main__":
    sys.exit(main())

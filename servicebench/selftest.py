"""Self-test: the benchmark's checks must fail a run whose outputs are wrong.

Usage, from the root of a checkout::

    python3 servicebench/selftest.py

Runs every workload at smoke size (each must pass), then three smoke
runs with one fault injected by the benchmark itself (``run.py
--inject``), each of which must exit nonzero and report
``"correct": false``:

* ``flip`` -- the first ``query_batch`` answer is negated before it is
  checked (read-hot);
* ``drop-event`` -- the last acknowledged WAL record of one session is
  cut from the data dir before the reboot (restart);
* ``drop-session`` -- one session's directory is removed from the data
  dir before the reboot (restart).

Exits nonzero if any case does not behave as stated.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = [
    ("read-hot", None, True),
    ("ingest-mixed", None, True),
    ("restart", None, True),
    ("read-hot", "flip", False),
    ("restart", "drop-event", False),
    ("restart", "drop-session", False),
]


def main() -> int:
    bad = 0
    for workload, inject, should_pass in CASES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--smoke"]
        if inject:
            command += ["--inject", inject]
        proc = subprocess.run(command, cwd=str(HERE.parent), capture_output=True,
                              text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        passed = proc.returncode == 0 and correct is True
        ok = passed == should_pass and correct is not None
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:13} inject={inject or '-':13} "
              f"exit={proc.returncode} correct={correct}")
        if not ok:
            print(proc.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

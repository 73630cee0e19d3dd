"""Server processes, timed requests and the run's ledger.

The benchmark drives real ``repro serve`` processes launched from the
checkout's ``src/`` tree, over loopback TCP, through one
:class:`~repro.service.client.ServiceClient` per server in a closed loop
(the next request is sent only after the previous answer arrived).
Every server is stopped and waited for before the run ends, including
on failure.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ReproError
from repro.service.client import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
T = TypeVar("T")
#: this process's scratch space; removed when the run ends
WORK = Path(__file__).resolve().parent / "_work" / str(os.getpid())

#: longer than any run, so no checkpoint roll ever fires on a timer;
#: rolls are issued explicitly through the pathless ``snapshot`` op
CHECKPOINT_INTERVAL = "86400"
LAUNCH_TIMEOUT = 120.0

#: the CPUs this process may use, read before ``pin`` narrows them
CPUS = sorted(os.sched_getaffinity(0))


def pin() -> None:
    """Put this process, and every server it launches after, on one CPU.

    Left to the scheduler, whether client and server shared a CPU moved
    hot-read throughput by a third from one run to the next on a 2-CPU
    machine; the closed loop keeps one of them busy at a time anyway.
    """
    os.sched_setaffinity(0, {CPUS[0]})


def spare_cpus() -> set:
    """CPUs for a replica, which works beside the closed loop, not in it."""
    return set(CPUS[1:] or CPUS)


class BenchError(Exception):
    """The run cannot continue (a server did not start, a check broke)."""


def work_dir(name: str) -> Path:
    """A fresh scratch directory under the benchmark's own ``_work``."""
    path = WORK / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file()
    )


class Server:
    """One ``repro serve`` child process on an ephemeral loopback port."""

    def __init__(self, data_dir: Path, *extra: str, cpus=None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(self.data_dir.parent / f"{self.data_dir.name}.log", "ab")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--data-dir", str(self.data_dir),
                "--checkpoint-interval", CHECKPOINT_INTERVAL, *extra,
            ],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.log,
        )
        if cpus is not None:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.client: Optional[ServiceClient] = None
        self.port = self._read_port()
        self.client = ServiceClient("127.0.0.1", self.port, timeout=120.0)
        self.client.ping()
        #: when the first ping was answered
        self.ready = time.perf_counter()

    def _read_port(self) -> int:
        lines: "queue.Queue[bytes]" = queue.Queue()

        def pump() -> None:
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(b"")

        threading.Thread(target=pump, daemon=True).start()
        deadline = time.monotonic() + LAUNCH_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise BenchError("server did not start in time") from None
            if not line:
                self.stop()
                raise BenchError(
                    f"server exited during start (code {self.proc.poll()}); "
                    f"see {self.log.name}"
                )
            text = line.decode("utf-8", "replace")
            if "listening on" in text:
                return int(text.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come; wait."""
        if self.client is not None:
            try:
                self.client.shutdown_server()
            except (ReproError, OSError):
                pass
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Ledger:
    """Operations attempted and failed per op type, plus wrong answers."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: List[str] = []
        self.wrong: List[str] = []

    def call(self, client: ServiceClient, op: str, **params):
        """One timed round trip; returns ``(result or None, start, end)``."""
        self.attempted[op] += 1
        started = time.perf_counter()
        try:
            result = client.call(op, **params)
        except (ReproError, OSError) as exc:
            self.failed[op] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op}: {exc}")
            return None, started, time.perf_counter()
        return result, started, time.perf_counter()

    @property
    def correct(self) -> bool:
        return not self.wrong

    def report(self) -> Dict[str, Dict[str, int]]:
        return {
            op: {"attempted": self.attempted[op], "failed": self.failed[op]}
            for op in sorted(self.attempted)
        }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


#: a stdlib-only stand-in for one small request: a JSON line of 256
#: pairs decoded, each pair type-checked and looked up in a dict, the
#: answers encoded.  It touches no code of the program under test.
_PROBE_RNG = random.Random("servicebench-probe")
_PROBE_PAIRS = [[_PROBE_RNG.randrange(4096), _PROBE_RNG.randrange(4096)]
                for _ in range(256)]
_PROBE_LINE = json.dumps({"op": "query_batch", "id": 1, "pairs": _PROBE_PAIRS})
_PROBE_TABLE = {(s, t): (s ^ t) & 1 == 0 for s, t in _PROBE_PAIRS}
_PROBE_ROUNDS = 12

#: the probe time reported figures are scaled to: about the probe's time
#: on the machine the README describes, at its usual (loaded) speed.  A
#: scaled time is what the measured time would have been had the probes
#: beside it taken exactly this long.
PROBE_REFERENCE_S = 0.0022


def probe() -> float:
    """Seconds for one fixed, program-independent piece of work.

    The first round is not timed: it brings the probe's code and data
    back into the caches the servers' work has just used.
    """
    started = 0.0
    for index in range(_PROBE_ROUNDS + 1):
        if index == 1:
            started = time.perf_counter()
        request = json.loads(_PROBE_LINE)
        answers = []
        for s, t in request["pairs"]:
            if not isinstance(s, int) or not isinstance(t, int):
                raise ValueError("probe pair")
            answers.append(_PROBE_TABLE.get((s, t), False))
        json.dumps({"id": request["id"], "ok": True, "answers": answers})
    return time.perf_counter() - started


class Meter:
    """The machine's speed over a run, from probes taken between requests.

    This host's CPU speed moves by up to ~1.9x under other tenants' load,
    in stretches of under a second to minutes, so raw times of the same
    work differ more between runs than any change worth gating.  The
    meter runs :func:`probe` on the client's CPU, which the servers are
    pinned to: between timed requests (the client is one process in a
    closed loop, so the servers are idle then) and while a long call
    keeps the client waiting (:meth:`during`).  It scales each measured
    interval by ``PROBE_REFERENCE_S`` over the median of the probes
    taken closest to it.  A change to the program moves the timed
    requests and not the probe, so it shows in full.
    """

    #: probes within this many seconds of an interval speak for it; the
    #: speed changes within a second, so only the closest probes do
    HORIZON_S = 0.03
    #: fewest probes a factor is taken from
    NEAREST = 3
    #: probe period while a long call (a boot, a roll) is under way
    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            seconds = probe()
            self.at.append(time.perf_counter() - seconds / 2)
            self.seconds.append(seconds)

    def during(self, call: Callable[[], T]) -> T:
        """``call()`` on a helper thread, probing every ``PERIOD_S`` meanwhile.

        A boot or a roll keeps the client waiting for up to seconds, long
        enough for the machine's speed to change; probing while it waits
        measures the speed the server ran at.  The client only waits in a
        socket or a pipe, so the probes hold the interpreter lock alone;
        the server loses a probe's time now and then, and ``busy`` takes
        the probes back out of the interval.
        """
        box: dict = {}

        def target() -> None:
            try:
                box["result"] = call()
            except BaseException as exc:  # handed to the caller below
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(self.PERIOD_S)
        while thread.is_alive():
            self.probe()
            thread.join(self.PERIOD_S)
        if "error" in box:
            raise box["error"]
        return box["result"]

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for the interval ``[start, end]``."""
        lo = bisect.bisect_left(self.at, start - self.HORIZON_S)
        hi = bisect.bisect_right(self.at, end + self.HORIZON_S)
        if hi - lo < self.NEAREST:
            middle = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, middle - self.NEAREST // 2)
            hi = min(len(self.at), lo + self.NEAREST)
            lo = max(0, hi - self.NEAREST)
        if lo >= hi:
            raise BenchError("no speed probe taken")
        return PROBE_REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def busy(self, start: float, end: float) -> float:
        """``end - start`` less the probes run inside it, as measured."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return (end - start) - sum(self.seconds[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """``busy(start, end)`` at reference speed."""
        return self.busy(start, end) * self.factor(start, end)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    Printed beside the metrics, never as one, so that drift in the
    machine's own speed shows in the record of a run.
    """
    started = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total += index & 7
    return time.perf_counter() - started

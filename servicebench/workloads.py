"""The three workloads: their request plans, and running a plan on a server.

A workload is a :class:`Plan` -- set-up traffic plus rounds of measured
traffic, all generated from the seed -- and a function that runs the plan
against real ``repro serve`` processes.  Every run of a workload sends
exactly the same operations in the same order; only the graphs behind
them change with the seed.

Each run sets up ``SETUPS`` times (``setup_s`` is the median of those)
and then plays its measured rounds on the last set-up.  Every end-to-end
metric is reported on every workload; where a workload's measured
rounds do not send an op, its figures come from the workload's own
set-up traffic or from reboots of its data dir (the README's metric
table says which).  Times are reported at a reference machine speed,
measured by probes taken around them (see ``harness.Meter``).
"""

from __future__ import annotations

import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

from servicebench.harness import (
    BenchError,
    Ledger,
    Meter,
    Server,
    dir_bytes,
    percentile,
    spare_cpus,
    work_dir,
)
from servicebench.inputs import (
    Run,
    answer,
    batches_from,
    check_answers,
    make_runs,
    rng_for,
    sample_pairs,
)

SETUPS = 3
#: read-hot and ingest-mixed reboot their data dir this many times;
#: restart boots each of its ``SETUPS`` data dirs ``BOOTS_PER_BUILD`` times
REBOOTS = 3
BOOTS_PER_BUILD = 1

#: (op, run, payload): payload is the wire chunk of an ``ingest``, the
#: wire pairs of a ``query_batch``, and None for a ``snapshot`` roll
Op = Tuple[str, Run, Optional[list]]

#: seconds of an interval ``(start, end)``, raw or at reference speed
Scale = Callable[[float, float], float]

#: round trips per block: the meter probes once per block, and a
#: throughput or a p50 is taken per block
BLOCK = 16
#: probes taken on each side of a roll or a boot, which last long
#: enough for the machine's speed to change across them
BURST = 4

#: input sizes; ``smoke`` runs every workload end to end in seconds.
#: A session holds at most ~20K events: ``running-example`` derivations
#: level off near 28K vertices, so larger cuts would not exist for
#: every seed.  The work is fixed: ``--seconds`` does not change it.
SIZES = {
    "read-hot": {
        "full": dict(sessions=3, events=8000, chunk=64, hot=2048, batch=256,
                     batches=100, rounds=30),
        "smoke": dict(sessions=3, events=600, chunk=64, hot=256, batch=64,
                      batches=5, rounds=3),
    },
    "ingest-mixed": {
        "full": dict(sessions=4, prefill=2048, prefill_chunk=512, chunk=64,
                     hot=1024, batch=256, steps=32, roll_every=16,
                     replica_batches=8, rounds=8),
        "smoke": dict(sessions=3, prefill=200, prefill_chunk=100, chunk=16,
                      hot=128, batch=32, steps=6, roll_every=3,
                      replica_batches=2, rounds=3),
    },
    "restart": {
        "full": dict(sessions=5, events=20480, chunk=64, rolled=0.6,
                     batch=256, batches=80),
        "smoke": dict(sessions=4, events=800, chunk=64, rolled=0.6,
                      batch=64, batches=5),
    },
}


@dataclass
class Plan:
    """Everything a run sends, generated from the seed."""

    workload: str
    runs: List[Run]
    setup: List[Op]
    rounds: List[List[Op]]
    #: played, checked and not timed before the rounds (read-hot fills
    #: its cache with it)
    warmup: List[Op] = field(default_factory=list)
    #: read pass on the replica (ingest-mixed only)
    replica_pass: List[Op] = field(default_factory=list)


def batched(run: Run, pairs: List[Tuple[int, int]], size: int) -> List[Op]:
    """``query_batch`` ops asking ``pairs`` in order, ``size`` at a time."""
    wire = [list(pair) for pair in pairs]
    return [("query_batch", run, wire[lo:lo + size])
            for lo in range(0, len(wire), size)]


def interleave(per_run: Dict[str, List[Op]]) -> List[Op]:
    """Round-robin the sessions' op lists into one sequence."""
    lists = list(per_run.values())
    out: List[Op] = []
    for index in range(max(len(ops) for ops in lists)):
        out.extend(ops[index] for ops in lists if index < len(ops))
    return out


def plan_read_hot(seed: int, sizes: dict) -> Plan:
    runs = make_runs("read-hot", seed, sizes["sessions"], sizes["events"])
    setup = interleave({
        run.name: [("ingest", run, chunk)
                   for chunk in run.chunks(0, len(run.wire), sizes["chunk"])]
        for run in runs
    })
    setup += [("snapshot", run, None) for run in runs]
    per_run: Dict[str, List[Op]] = {}
    warm: List[Op] = []
    for run in runs:
        rng = rng_for(seed, "read-hot", "pairs", run.name)
        pool = sample_pairs(run.vids, sizes["hot"], rng)
        answer(run, [pool])
        warm += batched(run, pool, sizes["batch"])
        per_run[run.name] = [
            ("query_batch", run, pairs)
            for pairs in batches_from(pool, sizes["batch"], sizes["batches"], rng)
        ]
    return Plan("read-hot", runs, setup, [interleave(per_run)] * sizes["rounds"],
                warmup=warm)


def plan_ingest_mixed(seed: int, sizes: dict) -> Plan:
    rounds = sizes["rounds"]
    per_round = sizes["steps"] * sizes["chunk"]
    events = sizes["prefill"] + rounds * per_round
    runs = make_runs("ingest-mixed", seed, sizes["sessions"], events)
    prefill = sizes["prefill"]
    setup = interleave({
        run.name: [("ingest", run, chunk)
                   for chunk in run.chunks(0, prefill, sizes["prefill_chunk"])]
        for run in runs
    })
    pools = {}
    replica_pass: List[Op] = []
    for run in runs:
        rng = rng_for(seed, "ingest-mixed", "pairs", run.name)
        pools[run.name] = sample_pairs(run.vids[:prefill], sizes["hot"], rng)
        spread = sample_pairs(run.vids, sizes["replica_batches"] * sizes["batch"],
                              rng)
        answer(run, [pools[run.name], spread])
        replica_pass += batched(run, spread, sizes["batch"])
    rolls = sizes["roll_every"]
    rolled = 0
    plan_rounds = []
    for index in range(rounds):
        ops: List[Op] = []
        base = prefill + index * per_round
        for step in range(sizes["steps"]):
            for run in runs:
                rng = rng_for(seed, "ingest-mixed", "round", index, step, run.name)
                lo = base + step * sizes["chunk"]
                ops.append(("ingest", run, run.wire[lo:lo + sizes["chunk"]]))
                ops.append(("query_batch", run,
                            batches_from(pools[run.name], sizes["batch"], 1, rng)[0]))
            if step % rolls == rolls - 1:
                ops.append(("snapshot", runs[rolled % len(runs)], None))
                rolled += 1
        plan_rounds.append(ops)
    return Plan("ingest-mixed", runs, setup, plan_rounds,
                replica_pass=replica_pass)


def plan_restart(seed: int, sizes: dict) -> Plan:
    runs = make_runs("restart", seed, sizes["sessions"], sizes["events"])
    cut = int(sizes["events"] * sizes["rolled"])
    setup = interleave({
        run.name: [("ingest", run, chunk)
                   for chunk in run.chunks(0, cut, sizes["chunk"])]
        for run in runs
    })
    setup += [("snapshot", run, None) for run in runs]
    setup += interleave({
        run.name: [("ingest", run, chunk)
                   for chunk in run.chunks(cut, len(run.wire), sizes["chunk"])]
        for run in runs
    })
    per_run = {}
    for run in runs:
        rng = rng_for(seed, "restart", "pairs", run.name)
        pairs = sample_pairs(run.vids, sizes["batches"] * sizes["batch"], rng)
        answer(run, [pairs])
        per_run[run.name] = batched(run, pairs, sizes["batch"])
    # one cold pass, replayed after every boot
    return Plan("restart", runs, setup, [interleave(per_run)])


PLANS = {
    "read-hot": plan_read_hot,
    "ingest-mixed": plan_ingest_mixed,
    "restart": plan_restart,
}


def make_plan(workload: str, seed: int, smoke: bool) -> Plan:
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    return PLANS[workload](seed, sizes)


# ---------------------------------------------------------------------------
# running a plan
# ---------------------------------------------------------------------------


class Tally:
    """``(units, start, end)`` of every timed round trip, per op."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[Tuple[int, float, float]]] = defaultdict(list)

    def add(self, op: str, units: int, start: float, end: float) -> None:
        self.samples[op].append((units, start, end))

    def timed(self, op: str, scale: Scale) -> List[Tuple[int, float]]:
        """``(units, seconds)`` of every ``op`` round trip, through ``scale``."""
        return [(units, scale(start, end))
                for units, start, end in self.samples[op]]


class Executor:
    """Sends ops through a client, checks every answer, tracks acks.

    ``acked`` counts each session's acknowledged events and ``versions``
    its version as the acks report them; the restart and replica checks
    compare the servers' own accounts with these.
    """

    def __init__(self, ledger: Ledger, inject: Optional[str] = None,
                 meter: Optional[Meter] = None) -> None:
        self.ledger = ledger
        self.inject = inject
        self.meter = meter
        self.acked: Dict[str, int] = defaultdict(int)
        self.versions: Dict[str, int] = defaultdict(int)

    def create(self, client, runs: List[Run]) -> None:
        for run in runs:
            result, _, _ = self.ledger.call(client, "create_session",
                                            name=run.name, spec=run.spec)
            if result is None:
                raise BenchError(f"cannot create session {run.name}")
            self.acked[run.name] = 0
            self.versions[run.name] = 0

    def play(self, client, ops: List[Op], tally: Optional[Tally]) -> None:
        """Send ``ops`` in order; with a meter, probe between blocks of them."""
        ledger, meter = self.ledger, self.meter
        for index, (op, run, payload) in enumerate(ops):
            if meter is not None and index % BLOCK == 0:
                meter.probe()
            if op == "ingest":
                result, start, end = ledger.call(client, op, session=run.name,
                                                 insertions=payload)
                if result is None:
                    continue
                self.acked[run.name] += result["ingested"]
                self.versions[run.name] += 1
                if (result["ingested"] != len(payload)
                        or result["version"] != self.versions[run.name]):
                    ledger.wrong.append(f"ingest on {run.name} acked {result}")
                units = len(payload)
            elif op == "query_batch":
                result, start, end = ledger.call(client, op, session=run.name,
                                                 pairs=payload)
                if result is None:
                    continue
                answers = result["answers"]
                if self.inject == "flip":
                    answers[0] = not answers[0]
                    self.inject = None
                check_answers(run, payload, answers, ledger.wrong, op)
                units = len(payload)
            else:
                if meter is None:
                    result, start, end = ledger.call(client, op, session=run.name)
                else:
                    meter.probe(BURST)
                    result, start, end = meter.during(
                        lambda: ledger.call(client, op, session=run.name))
                    meter.probe(BURST)
                if result is None:
                    continue
                if result["vertices"] != self.acked[run.name]:
                    ledger.wrong.append(
                        f"snapshot of {run.name} holds {result['vertices']} "
                        f"vertices, {self.acked[run.name]} acked")
                units = 1
            if tally is not None:
                tally.add(op, units, start, end)


class Measures:
    """What a run measured, beside the round trips in its tallies.

    Set-ups and boots are kept as ``(start, end)`` intervals, so that
    they can be read raw or at reference speed like the round trips.
    """

    def __init__(self) -> None:
        self.setups: List[Tuple[float, float]] = []
        self.boots: List[Tuple[float, float]] = []
        self.disk_per_event: List[float] = []
        self.rss_mb: List[float] = []

    def timed(self, rounds: Tally, ingest: Tally, scale: Scale) -> Dict[str, float]:
        """The timed end-to-end metrics, every interval read through ``scale``.

        ``ingest`` is the tally that holds the workload's ingests and
        rolls (its rounds on ingest-mixed, its set-up elsewhere).
        """
        query_rate, query_p50 = per_block(rounds.timed("query_batch", scale))
        ingest_rate, ingest_p50 = per_block(ingest.timed("ingest", scale))
        rolls = [seconds for _, seconds in ingest.timed("snapshot", scale)]
        return {
            "setup_s": statistics.median(scale(*span) for span in self.setups),
            "query_pairs_per_s": query_rate,
            "query_p50_ms": query_p50 * 1e3,
            "ingest_events_per_s": ingest_rate,
            "ingest_p50_ms": ingest_p50 * 1e3,
            "snapshot_ms": statistics.median(rolls) * 1e3,
            "boot_s": statistics.median(scale(*span) for span in self.boots),
        }

    def metrics(self, rounds: Tally, ingest: Tally, meter: Meter) -> Tuple[Dict, Dict]:
        """The end-to-end metrics, and what is printed beside them.

        Times are reported at reference speed (see ``Meter``); the same
        figures as measured, and the p99 round trips, go beside them.
        """
        units = dict(setup_s="s", query_pairs_per_s="1/s", query_p50_ms="ms",
                     ingest_events_per_s="1/s", ingest_p50_ms="ms",
                     snapshot_ms="ms", boot_s="s")
        timed = self.timed(rounds, ingest, meter.normalize)
        metrics: Dict[str, Tuple[float, str]] = {
            name: (value, units[name]) for name, value in timed.items()
        }
        metrics["disk_bytes_per_event"] = (
            statistics.median(self.disk_per_event), "B")
        metrics["server_peak_rss_mb"] = (statistics.median(self.rss_mb), "MiB")
        beside = {
            "as_measured": self.timed(rounds, ingest, meter.busy),
            "probes": len(meter.seconds),
            "probe_ms_quartiles": [round(q * 1e3, 4) for q in
                                   statistics.quantiles(meter.seconds, n=4)],
        }
        for name, tally, op in (("query", rounds, "query_batch"),
                                ("ingest", ingest, "ingest")):
            samples = tally.timed(op, meter.normalize)
            beside[f"{name}_samples"] = len(samples)
            if len(samples) >= 1000:
                beside[f"{name}_p99_ms"] = percentile(
                    [seconds for _, seconds in samples], 0.99) * 1e3
        return metrics, beside


def per_block(samples: List[Tuple[int, float]]) -> Tuple[float, float]:
    """Median block throughput and median block p50 of ``samples``.

    The round trips are cut, in order, into blocks of ``BLOCK`` (a few
    to a few tens of ms each); a block's throughput is its work over
    its time, its p50 the median of its round trips.  Medians over the
    blocks keep a stall of the host inside one block out of the figure.
    """
    blocks = [samples[lo:lo + BLOCK]
              for lo in range(0, len(samples) - BLOCK + 1, BLOCK)]
    rates = [sum(u for u, _ in block) / sum(s for _, s in block)
             for block in blocks]
    medians = [statistics.median(s for _, s in block) for block in blocks]
    return statistics.median(rates), statistics.median(medians)


def check_recovered(plan: Plan, server: Server, executor: Executor,
                    ledger: Ledger) -> None:
    """Every session back with exactly its acked vertices and version."""
    info = server.client.recover_info()
    sessions = info["sessions"]
    for run in plan.runs:
        want = (executor.acked[run.name], executor.versions[run.name])
        have = sessions.get(run.name)
        got = None if have is None else (have["vertices"], have["version"])
        if got != want:
            ledger.wrong.append(f"after reboot {run.name} holds "
                                f"(vertices, version) {got}, acked {want}")
    for report in info["recovered"]:
        if "torn_tail" in report:
            ledger.wrong.append(f"torn tail at boot: {report}")


def reboot(data_dir: Path, plan: Plan, executor: Executor, ledger: Ledger,
           measures: Measures, times: int, reads: Optional[List[Op]] = None,
           tally: Optional[Tally] = None) -> None:
    """Boot a stopped server's data dir ``times`` times and check it.

    Each boot is timed from launch to the first answered ``ping``, then
    must show every session with its acknowledged events; ``reads`` are
    played on the freshly booted (cold) server.
    """
    meter = executor.meter
    for _ in range(times):
        meter.probe(BURST)
        server = meter.during(lambda: Server(data_dir))
        try:
            meter.probe(BURST)
            measures.boots.append((server.launched, server.ready))
            check_recovered(plan, server, executor, ledger)
            if reads:
                executor.play(server.client, reads, tally)
                measures.rss_mb.append(server.peak_rss_mb())
        finally:
            server.stop()


def run_read_hot(plan: Plan, ledger: Ledger, inject: Optional[str]):
    """Hot reads on a warm cache; ingest and rolls from set-up; reboots."""
    setup, rounds, measures, meter = Tally(), Tally(), Measures(), Meter()
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(server.data_dir)
            executor = Executor(ledger, inject, meter)
            meter.probe(BURST)
            started = time.perf_counter()
            data_dir = work_dir(f"read-hot-{index}") / "data"
            server = meter.during(lambda: Server(data_dir))
            executor.create(server.client, plan.runs)
            executor.play(server.client, plan.setup, setup)
            measures.setups.append((started, time.perf_counter()))
            meter.probe(BURST)
        executor.play(server.client, plan.warmup, None)
        for ops in plan.rounds:
            executor.play(server.client, ops, rounds)
        measures.rss_mb.append(server.peak_rss_mb())
    finally:
        if server is not None:
            server.stop()
    measures.disk_per_event.append(
        dir_bytes(server.data_dir) / sum(executor.acked.values()))
    reboot(server.data_dir, plan, executor, ledger, measures, REBOOTS)
    return measures.metrics(rounds, setup, meter)


def wait_caught_up(primary: Server, replica: Server, timeout: float = 60.0) -> None:
    """Block until the replica has applied every shipped record."""
    deadline = time.monotonic() + timeout
    while True:
        target = primary.client.recover_info()["replication"]["seq"]
        applied = replica.client.recover_info()["replication"]["applied"]
        if applied >= target:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"replica stuck at {applied} of {target}")
        time.sleep(0.01)


def check_replica(plan: Plan, primary: Server, replica: Server,
                  executor: Executor, ledger: Ledger) -> None:
    """Same sessions and vertex counts on both, and oracle-true replica reads."""
    wait_caught_up(primary, replica)
    ours = primary.client.recover_info()["sessions"]
    theirs = replica.client.recover_info()["sessions"]
    if sorted(ours) != sorted(theirs):
        ledger.wrong.append(f"replica sessions {sorted(theirs)} != "
                            f"primary {sorted(ours)}")
    for run in plan.runs:
        want = executor.acked[run.name]
        got = (ours.get(run.name, {}).get("vertices"),
               theirs.get(run.name, {}).get("vertices"))
        if got != (want, want):
            ledger.wrong.append(f"{run.name}: primary/replica hold {got}, "
                                f"{want} acked")
    executor.play(replica.client, plan.replica_pass, None)


def run_ingest_mixed(plan: Plan, ledger: Ledger, inject: Optional[str]):
    """Durable ingest chunks, semi-sync to one replica, reads and rolls between."""
    rounds, measures, meter = Tally(), Measures(), Meter()
    servers: List[Server] = []

    def stop_all() -> None:
        while servers:
            servers.pop().stop()

    try:
        for index in range(SETUPS):
            stop_all()
            root = work_dir(f"ingest-mixed-{index}")
            executor = Executor(ledger, inject, meter)
            meter.probe(BURST)
            started = time.perf_counter()
            primary = Server(root / "primary", "--repl-min-acks", "1")
            servers.append(primary)
            replica = Server(root / "replica", "--replicate-from",
                             f"127.0.0.1:{primary.port}",
                             "--replica-id", "bench-replica",
                             cpus=spare_cpus())
            servers.append(replica)
            executor.create(primary.client, plan.runs)
            executor.play(primary.client, plan.setup, None)
            wait_caught_up(primary, replica)
            measures.setups.append((started, time.perf_counter()))
            meter.probe(BURST)
        for ops in plan.rounds:
            executor.play(primary.client, ops, rounds)
        check_replica(plan, primary, replica, executor, ledger)
        measures.rss_mb.append(primary.peak_rss_mb())
    finally:
        stop_all()
    measures.disk_per_event.append(
        dir_bytes(primary.data_dir) / sum(executor.acked.values()))
    reboot(primary.data_dir, plan, executor, ledger, measures, REBOOTS)
    return measures.metrics(rounds, rounds, meter)


def damage(data_dir: Path, run: Run, inject: Optional[str]) -> None:
    """Self-test faults: lose an acknowledged event, or a whole session."""
    directory = data_dir / ("s-" + quote(run.name, safe=""))
    if inject == "drop-session":
        shutil.rmtree(directory)
    elif inject == "drop-event":
        wal = directory / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"".join(lines[:-1]))


def run_restart(plan: Plan, ledger: Ledger, inject: Optional[str]):
    """Build a data dir, then reboot it and read it cold, once per build."""
    setup, rounds, measures, meter = Tally(), Tally(), Measures(), Meter()
    for index in range(SETUPS):
        executor = Executor(ledger, inject, meter)
        data_dir = work_dir(f"restart-{index}") / "data"
        meter.probe(BURST)
        started = time.perf_counter()
        server = meter.during(lambda: Server(data_dir))
        try:
            executor.create(server.client, plan.runs)
            executor.play(server.client, plan.setup, setup)
        finally:
            meter.during(server.stop)
        measures.setups.append((started, time.perf_counter()))
        meter.probe(BURST)
        measures.disk_per_event.append(
            dir_bytes(data_dir) / sum(executor.acked.values()))
        damage(data_dir, plan.runs[0], inject)
        reboot(data_dir, plan, executor, ledger, measures, BOOTS_PER_BUILD,
               plan.rounds[0], rounds)
        shutil.rmtree(data_dir.parent)
    return measures.metrics(rounds, setup, meter)


RUNNERS = {
    "read-hot": run_read_hot,
    "ingest-mixed": run_ingest_mixed,
    "restart": run_restart,
}

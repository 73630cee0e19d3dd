"""Traced mode: the workload's own requests, timed layer by layer.

``run.py --trace 1`` replays a workload's plan -- its set-up traffic, the
warm-up round on read-hot, a reboot on restart, then one measured round
-- through an in-process :class:`~repro.service.server.ReproServer` and
a :class:`~repro.service.client.ServiceClient`, twice on fresh data
dirs: once plain, once with spans around each layer's entry point.  The
spans are recorded from these files by wrapping the attributes of the
live instances (nothing in the program changes); each keeps its name,
start, end, parent span, the op of the request it belongs to, and the
phase of the plan.  A layer's self time is its span minus its child
spans.  The spans are written to ``servicebench/_out/`` when the run
ends; the measured round's wall time, traced over plain, is the tracing
overhead.

Calls that the replay does not reach on every workload (the kernel on
a warm cache, a restore from a checkpoint, the process start, the
replica ack) are made directly, on the same generated inputs, after the
replay.  The README maps every per-layer metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.datasets import spec_by_name
from repro.io.jsonio import execution_from_json, specification_from_json
from repro.io.labelstore import load_label_store
from repro.obs.metrics import default_registry
from repro.obs.names import WAL_APPEND_SECONDS, WAL_FSYNC_SECONDS
from repro.schemes import registry as scheme_registry
from repro.service.client import ServiceClient
from repro.service.protocol import (
    Request,
    Response,
    decode_request,
    encode_request,
    encode_response,
    insertions_from_wire,
)
from repro.service.server import ReproServer, ReproService
from repro.service.sessions import Session, SessionManager
from repro.service.wal import DurableStore, replay_wal

from servicebench.harness import (
    ROOT,
    Ledger,
    Server,
    dir_bytes,
    spare_cpus,
    work_dir,
)
from servicebench.workloads import Executor, Plan

OUT = Path(__file__).resolve().parent / "_out"

#: replica-ack passes time at most this many ingests each
ACK_PASS_INGESTS = 384


class Spans:
    """In-memory spans: ``(name, start, end, parent, op, phase)`` rows."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.units: Dict[int, int] = {}
        self._started: Dict[int, float] = {}
        self.phase = "setup"
        self._local = threading.local()
        #: (span, op) of the client request the server is handling now
        self._open_request: tuple = (None, None)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None) -> int:
        stack = self._stack()
        if stack:
            parent, outer_op = stack[-1][0], stack[-1][1][4]
        else:
            parent, outer_op = self._open_request
        if op is None:
            op = outer_op
        index = len(self.rows)
        self.rows.append(None)
        stack.append((index, (name, 0.0, 0.0, parent, op, self.phase)))
        self._started[index] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        ended = time.perf_counter()
        _, (name, _, _, parent, op, phase) = self._stack().pop()
        # a finished span is a tuple of atoms, which the cycle collector
        # stops tracking, so a long trace does not slow the program's
        # own collections
        self.rows[index] = (name, self._started.pop(index), ended, parent,
                            op, phase)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original."""
        inner = getattr(owner, attr)
        spans = self

        def traced(*args, **kwargs):
            index = spans.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                spans.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def client_call(self, client: ServiceClient) -> None:
        """Span every round trip of ``client`` as ``transport.rtt``."""
        inner = client.call
        spans = self

        def traced(op, **params):
            index = spans.open("transport.rtt", op)
            payload = params.get("pairs", params.get("insertions"))
            spans.units[index] = len(payload) if payload is not None else 1
            spans._open_request = (index, op)
            try:
                return inner(op, **params)
            finally:
                spans._open_request = (None, None)
                spans.close(index)

        client.call = traced

    def totals(self):
        """``(name, op, phase) -> [count, seconds, self seconds, units]``."""
        child = defaultdict(float)
        for name, start, end, parent, op, phase in self.rows:
            if parent is not None:
                child[parent] += end - start
        sums = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for index, (name, start, end, parent, op, phase) in enumerate(self.rows):
            row = sums[(name, op, phase)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
            row[3] += self.units.get(index, 0)
        return sums, child

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": self.rows}, handle)


class Stack:
    """An in-process durable service on a loopback port, with one client."""

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = data_dir
        self.service = ReproService(data_dir=str(data_dir), fsync="always")
        self.server = ReproServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.client = ServiceClient("127.0.0.1", self.server.port, timeout=120.0)

    def close(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()


def instrument(stack: Stack, spans: Spans, names: List[str], acc: dict) -> None:
    """Wrap the entry point of every layer of ``stack`` in spans."""
    service = stack.service
    spans.wrap(service, "handle_line", "server.handle_line")
    spans.wrap(service, "handle", "server.handle")
    spans.wrap(service.engine, "query_many", "engine.query_many")
    spans.wrap(service.engine, "ingest", "engine.ingest")

    def rolled(args, result):
        directory = service.store.generation_dir(
            result["session"], result["checkpoint_version"])
        acc["roll_bytes"].append(dir_bytes(directory))
        acc["roll_vertices"].append(result["checkpoint_vertices"])

    spans.wrap(service.store, "checkpoint", "checkpoint.roll", rolled)
    for name in names:
        session = service.manager.get(name)
        spans.wrap(session, "ingest_many", "sessions.ingest_many")
        spans.wrap(session.scheme, "query_many", "labeling.query_many")
        spans.wrap(session.scheme, "insert", "labeling.insert")
        wal = service.store._entries[name].wal
        last = [os.path.getsize(wal.path)]

        def appended(args, result, wal=wal, last=last):
            size = os.path.getsize(wal.path)
            if size > last[0]:
                acc["wal_bytes"] += size - last[0]
                acc["wal_events"] += len(args[2])
            last[0] = size

        spans.wrap(wal, "append", "wal.append", appended)
    spans.client_call(stack.client)


def replay(plan: Plan, root: Path, ledger: Ledger,
           spans: Optional[Spans]) -> dict:
    """Play set-up, [reboot,] warm-up and one round on a fresh stack."""
    acc = {"roll_bytes": [], "roll_vertices": [], "wal_bytes": 0,
           "wal_events": 0}
    data_dir = root / "data"
    stack = Stack(data_dir)
    executor = Executor(ledger)
    try:
        executor.create(stack.client, plan.runs)
        if spans is not None:
            instrument(stack, spans, [run.name for run in plan.runs], acc)
        executor.play(stack.client, plan.setup, None)
        if plan.workload == "restart":
            stack.close()
            stack = Stack(data_dir)
            if spans is not None:
                instrument(stack, spans, [run.name for run in plan.runs], acc)
        if spans is not None:
            spans.phase = "warm"
        executor.play(stack.client, plan.warmup, None)
        stats = stack.service.engine.stats()
        if spans is not None:
            spans.phase = "round"
        started = time.perf_counter()
        executor.play(stack.client, plan.rounds[0], None)
        acc["round_s"] = time.perf_counter() - started
        after = stack.service.engine.stats()
        acc["hits"] = after.cache_hits - stats.cache_hits
        acc["misses"] = after.cache_misses - stats.cache_misses
        acc["queries"] = after.queries - stats.queries
    finally:
        stack.close()
    return acc


def median_ns(call: Callable, items: list) -> float:
    """Median ns of ``call(item)`` over ``items``."""
    samples = []
    for item in items:
        started = time.perf_counter_ns()
        call(item)
        samples.append(time.perf_counter_ns() - started)
    return statistics.median(samples)


def direct_layers(plan: Plan, data_dir: Path, metrics: dict) -> None:
    """Layers measured by calling them on the workload's own inputs."""
    queries = [(run, pairs) for op, run, pairs in plan.rounds[0]
               if op == "query_batch"]
    ingests = [(run, chunk) for op, run, chunk in plan.setup + plan.rounds[0]
               if op == "ingest"]
    # kernel: scheme.query_many / insert on fresh schemes fed the same runs
    schemes = {}
    insert_s = 0.0
    inserted = 0
    for run in plan.runs:
        scheme = scheme_registry.open_dynamic("drl", spec_by_name(run.spec))
        started = time.perf_counter()
        for ins in run.insertions:
            scheme.insert(ins)
        insert_s += time.perf_counter() - started
        inserted += len(run.insertions)
        schemes[run.name] = scheme
    started = time.perf_counter()
    pairs = 0
    for run, batch in queries:
        schemes[run.name].query_many([tuple(pair) for pair in batch])
        pairs += len(batch)
    metrics["labeling.query_ns_per_pair"] = (
        (time.perf_counter() - started) * 1e9 / pairs, "ns")
    metrics["labeling.insert_ns_per_event"] = (insert_s * 1e9 / inserted, "ns")
    bits = [scheme.label_bits_of(vid) for scheme in schemes.values()
            for vid in scheme.labels]
    metrics["labeling.label_bits_avg"] = (sum(bits) / len(bits), "bit")
    metrics["labeling.label_bits_max"] = (max(bits), "bit")
    # sessions: the session's batch ingest, without a durable store
    started = time.perf_counter()
    for run in plan.runs:
        Session(run.name, spec_by_name(run.spec)).ingest_many(run.insertions)
    metrics["sessions.ingest_ns_per_event"] = (
        (time.perf_counter() - started) * 1e9 / inserted, "ns")
    # protocol: the codec on the workload's own request and response lines
    query_lines = [encode_request(Request("query_batch", {
        "session": run.name, "pairs": batch}, id=index))
        for index, (run, batch) in enumerate(queries)]
    ingest_lines = [encode_request(Request("ingest", {
        "session": run.name, "insertions": chunk}, id=index))
        for index, (run, chunk) in enumerate(ingests)]
    responses = [Response(ok=True, id=index, trace_id="0" * 16, result={
        "answers": [run.expected[tuple(pair)] for pair in batch]})
        for index, (run, batch) in enumerate(queries)]
    metrics["protocol.decode_query_ns"] = (median_ns(decode_request, query_lines), "ns")
    metrics["protocol.decode_ingest_ns"] = (median_ns(decode_request, ingest_lines), "ns")
    metrics["protocol.encode_ns"] = (median_ns(encode_response, responses), "ns")
    started = time.perf_counter()
    for run, chunk in ingests:
        insertions_from_wire(chunk)
    metrics["protocol.insertions_from_wire_ns_per_event"] = (
        (time.perf_counter() - started) * 1e9 / sum(len(c) for _, c in ingests),
        "ns")
    # boot: the restore steps on each session's current checkpoint, the
    # WAL replay, and the store's whole recovery
    parse_s = relabel_s = verify_s = replay_s = 0.0
    for directory in sorted(data_dir.glob("s-*")):
        generation = directory / (directory / "CURRENT").read_text().strip()
        manifest = json.loads((generation / "manifest.json").read_text())
        started = time.perf_counter()
        with open(generation / "spec.json") as handle:
            spec = specification_from_json(json.load(handle))
        with open(generation / "log.json") as handle:
            log = execution_from_json(json.load(handle))
        parse_s += time.perf_counter() - started
        started = time.perf_counter()
        session = Session(manifest["session"], spec, scheme=manifest["scheme"],
                          skeleton=manifest["skeleton"], mode=manifest["mode"])
        session.ingest_many(log)
        relabel_s += time.perf_counter() - started
        started = time.perf_counter()
        _, stored = load_label_store(spec, generation / "labels.json")
        if dict(session.scheme.labels) != stored:
            raise RuntimeError(f"stored labels of {directory} diverge")
        verify_s += time.perf_counter() - started
        started = time.perf_counter()
        replay_wal(directory / "wal.jsonl")
        replay_s += time.perf_counter() - started
    metrics["checkpoint.restore_parse_s"] = (parse_s, "s")
    metrics["checkpoint.restore_relabel_s"] = (relabel_s, "s")
    metrics["checkpoint.restore_verify_s"] = (verify_s, "s")
    metrics["wal.replay_s"] = (replay_s, "s")
    store = DurableStore(data_dir)
    started = time.perf_counter()
    store.recover(SessionManager())
    metrics["boot.recover_s"] = (time.perf_counter() - started, "s")
    store.close()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    starts = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import repro.cli, repro.service.server"],
                       env=env, check=True)
        starts.append(time.perf_counter() - started)
    metrics["boot.process_start_s"] = (statistics.median(starts), "s")


def ack_wait(plan: Plan, ledger: Ledger) -> float:
    """Median ingest round trip with one semi-sync replica minus without."""
    timed = [op for op in plan.rounds[0] if op[0] == "ingest"]
    untimed = plan.setup
    if not timed:
        untimed, timed = [], [op for op in plan.setup if op[0] == "ingest"]
    timed = timed[:ACK_PASS_INGESTS]
    medians = []
    for replicated in (False, True):
        root = work_dir(f"ack-{int(replicated)}")
        servers = []
        try:
            primary = Server(root / "primary",
                             *(["--repl-min-acks", "1"] if replicated else []))
            servers.append(primary)
            if replicated:
                servers.append(Server(root / "replica", "--replicate-from",
                                      f"127.0.0.1:{primary.port}",
                                      cpus=spare_cpus()))
            executor = Executor(ledger)
            executor.create(primary.client, plan.runs)
            executor.play(primary.client, untimed, None)
            samples = []
            for op, run, chunk in timed:
                _, start, end = ledger.call(primary.client, "ingest",
                                            session=run.name, insertions=chunk)
                samples.append(end - start)
            medians.append(statistics.median(samples))
        finally:
            for server in reversed(servers):
                server.stop()
    return (medians[1] - medians[0]) * 1e6


def run_traced(plan: Plan, ledger: Ledger, args) -> dict:
    plain = replay(plan, work_dir("plain"), ledger, None)
    spans = Spans()
    root = work_dir("traced")
    acc = replay(plan, root, ledger, spans)
    metrics: Dict[str, tuple] = {}
    sums, child = spans.totals()

    def total(name, op, phase, field=1):
        return sums[(name, op, phase)][field] if (name, op, phase) in sums else 0.0

    def per_request(op, phase):
        """Median rtt and rtt-minus-server of ``op`` requests in ``phase``."""
        rtts, selfs = [], []
        for index, row in enumerate(spans.rows):
            if row[0] == "transport.rtt" and row[4] == op and row[5] == phase:
                rtts.append(row[2] - row[1])
                selfs.append(row[2] - row[1] - child[index])
        return statistics.median(rtts) * 1e6, statistics.median(selfs) * 1e6

    q_phase = "round"
    pairs = total("transport.rtt", "query_batch", q_phase, 3)
    handle = total("server.handle_line", "query_batch", q_phase)
    engine = total("engine.query_many", "query_batch", q_phase)
    metrics["engine.query_ns_per_pair"] = (engine * 1e9 / pairs, "ns")
    metrics["engine.self_ns_per_pair"] = (
        total("engine.query_many", "query_batch", q_phase, 2) * 1e9 / pairs, "ns")
    metrics["server.query_handle_ns_per_pair"] = (handle * 1e9 / pairs, "ns")
    metrics["server.query_self_ns_per_pair"] = ((handle - engine) * 1e9 / pairs, "ns")
    rtt, own = per_request("query_batch", q_phase)
    metrics["transport.query_rtt_us"] = (rtt, "us")
    metrics["transport.query_self_us"] = (own, "us")
    metrics["engine.cache_hits"] = (acc["hits"], "count")
    metrics["engine.cache_misses"] = (acc["misses"], "count")
    metrics["engine.hit_ratio"] = (acc["hits"] / acc["queries"], "ratio")

    i_phase = "round" if ("transport.rtt", "ingest", "round") in sums else "setup"
    events = total("transport.rtt", "ingest", i_phase, 3)
    handle = total("server.handle_line", "ingest", i_phase)
    engine = total("engine.ingest", "ingest", i_phase)
    metrics["engine.ingest_ns_per_event"] = (engine * 1e9 / events, "ns")
    metrics["server.ingest_handle_ns_per_event"] = (handle * 1e9 / events, "ns")
    metrics["server.ingest_self_ns_per_event"] = ((handle - engine) * 1e9 / events, "ns")
    rtt, own = per_request("ingest", i_phase)
    metrics["transport.ingest_rtt_us"] = (rtt, "us")
    metrics["transport.ingest_self_us"] = (own, "us")
    appends = [row[2] - row[1] for row in spans.rows
               if row[0] == "wal.append" and row[5] == i_phase]
    metrics["wal.append_us_per_record"] = (statistics.median(appends) * 1e6, "us")
    metrics["wal.bytes_per_event"] = (acc["wal_bytes"] / acc["wal_events"], "B")
    rolls = [row[2] - row[1] for row in spans.rows if row[0] == "checkpoint.roll"]
    metrics["checkpoint.roll_ms"] = (statistics.median(rolls) * 1e3, "ms")
    metrics["checkpoint.bytes_written_per_roll"] = (
        statistics.median(acc["roll_bytes"]), "B")
    metrics["checkpoint.bytes_per_event"] = (
        sum(acc["roll_bytes"]) / sum(acc["roll_vertices"]), "B")
    metrics["trace.overhead_ratio"] = (acc["round_s"] / plain["round_s"], "ratio")

    registry = default_registry()
    fsyncs = len(registry.histogram(WAL_FSYNC_SECONDS))
    records = len(registry.histogram(WAL_APPEND_SECONDS))
    metrics["wal.fsyncs_per_record"] = (fsyncs / records, "1/record")

    gc.freeze()  # the spans are the benchmark's heap, not the program's
    direct_layers(plan, root / "data", metrics)
    metrics["replication.ack_wait_us"] = (ack_wait(plan, ledger), "us")

    spans.dump(OUT / f"trace-{plan.workload}-{args.seed}.json")
    self_times = defaultdict(float)
    for (name, op, phase), row in sums.items():
        self_times[f"{name}[{op}]"] += row[2]
    shutil.rmtree(root, ignore_errors=True)
    beside = {"self_seconds": {key: round(value, 6)
                               for key, value in sorted(self_times.items())},
              "spans": len(spans.rows),
              "plain_round_s": round(plain["round_s"], 6),
              "traced_round_s": round(acc["round_s"], 6)}
    return metrics, beside

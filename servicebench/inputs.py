"""Seeded inputs for the service benchmark, and the oracle they are checked by.

Everything here is a pure function of ``(workload, seed, size)``: the
same arguments give the same runs, the same request sequence and the
same expected answers in every process.  The program under test only
ever sees the generated requests.

A session's run is a sampled derivation of a builtin specification,
cut to an exact event count.  Cutting a run to a prefix of its
insertion order is itself a valid execution (vertices are inserted in
topological order), so every seed yields the same number of events,
requests and rounds -- only the graphs differ.

Expected answers come from :class:`repro.graphs.reachability.TransitiveClosure`
over the run graph, which is built from the insertions alone and never
touches a labeling scheme.  Closures are built one session at a time
and dropped once every pair the benchmark will ask has been answered,
so only the answers stay in memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.datasets import spec_by_name
from repro.graphs.digraph import NamedDAG
from repro.graphs.reachability import TransitiveClosure
from repro.io.jsonio import insertion_to_json
from repro.workflow.derivation import sample_run
from repro.workflow.execution import Insertion, execution_from_derivation
from repro.workflow.grammar import analyze_grammar

#: the specs sessions cycle through; they differ in label length and
#: recursion depth (DRL labels average ~33, ~36 and ~46 bits)
SPECS = ("bioaid", "running-example", "synthetic")

Pair = Tuple[int, int]


def rng_for(seed: int, *parts) -> random.Random:
    """A generator keyed by the seed and a label (stable across processes)."""
    return random.Random(":".join(str(part) for part in (seed, *parts)))


@dataclass
class Run:
    """One session's generated run: its events and its oracle answers."""

    name: str
    spec: str
    insertions: List[Insertion]
    wire: List[dict]
    position: Dict[int, int]
    #: oracle answers, filled in by :meth:`answer` while the closure lives
    expected: Dict[Pair, bool] = field(default_factory=dict)

    @property
    def vids(self) -> List[int]:
        return [ins.vid for ins in self.insertions]

    def chunks(self, start: int, stop: int, size: int) -> List[List[dict]]:
        """Wire events ``[start, stop)`` cut into ingest chunks of ``size``."""
        return [
            self.wire[lo:min(lo + size, stop)] for lo in range(start, stop, size)
        ]


def make_run(name: str, spec_name: str, events: int, rng: random.Random) -> Run:
    """Sample a run of ``spec_name`` and cut it to exactly ``events`` events."""
    spec = spec_by_name(spec_name)
    info = analyze_grammar(spec)
    for _ in range(8):
        derivation = sample_run(spec, int(events * 1.5), rng, info=info)
        insertions = execution_from_derivation(derivation).insertions
        if len(insertions) >= events:
            break
    else:
        raise ValueError(f"{spec_name} gave no run of {events} events")
    insertions = insertions[:events]
    return Run(
        name=name,
        spec=spec_name,
        insertions=insertions,
        wire=[insertion_to_json(ins) for ins in insertions],
        position={ins.vid: index for index, ins in enumerate(insertions)},
    )


def make_runs(workload: str, seed: int, sessions: int, events: int) -> List[Run]:
    return [
        make_run(
            f"{workload}-{index}",
            SPECS[index % len(SPECS)],
            events,
            rng_for(seed, workload, "run", index),
        )
        for index in range(sessions)
    ]


def answer(run: Run, pair_lists: Sequence[Sequence[Pair]]) -> None:
    """Record the oracle answer of every pair in ``pair_lists`` on ``run``."""
    graph = NamedDAG()
    for ins in run.insertions:
        graph.add_vertex(ins.vid, ins.name)
        for pred in ins.preds:
            graph.add_edge(pred, ins.vid)
    closure = TransitiveClosure(graph)
    expected = run.expected
    for pairs in pair_lists:
        for pair in pairs:
            if pair not in expected:
                expected[pair] = closure.reaches(pair[0], pair[1])


def sample_pairs(vids: Sequence[int], count: int, rng: random.Random) -> List[Pair]:
    """``count`` uniform (source, target) pairs over ``vids``.

    Half of them are drawn with the source no later than the target in
    insertion order, so a useful share of them is reachable; the rest
    are uniform and almost all unreachable.
    """
    pairs: List[Pair] = []
    last = len(vids) - 1
    for index in range(count):
        a, b = rng.randint(0, last), rng.randint(0, last)
        if index % 2 == 0 and a > b:
            a, b = b, a
        pairs.append((vids[a], vids[b]))
    return pairs


def batches_from(pool: Sequence[Pair], batch: int, count: int,
                 rng: random.Random) -> List[List[List[int]]]:
    """``count`` wire batches of ``batch`` distinct pairs drawn from ``pool``."""
    return [
        [list(pair) for pair in rng.sample(pool, batch)] for _ in range(count)
    ]


def check_answers(run: Run, pairs: Sequence[Sequence[int]], answers,
                  wrong: List[str], what: str) -> None:
    """Compare ``answers`` with the oracle and the order property.

    Insertion order is topological, so ``a ~> b`` implies that ``a`` was
    inserted no later than ``b``; a true answer that breaks this is
    wrong whatever the closure says.
    """
    if not isinstance(answers, list) or len(answers) != len(pairs):
        wrong.append(f"{what} on {run.name}: {len(pairs)} pairs, "
                     f"answers {answers!r:.80}")
        return
    position = run.position
    expected = run.expected
    for (a, b), got in zip(pairs, answers):
        want = expected[(a, b)]
        if got != want:
            wrong.append(f"{what} on {run.name}: {a}~>{b} answered {got}, "
                         f"oracle says {want}")
        elif got and position[a] > position[b]:
            wrong.append(f"{what} on {run.name}: {a}~>{b} answered true "
                         f"but {a} was inserted after {b}")

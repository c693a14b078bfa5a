"""``stream-bursty``: batches of edge updates, each followed by a query.

The input is a sliding-window stream over the EU replica
(``sliding_window_stream`` with 8-edge steps) whose vertices the workload
seed renames.  Consecutive steps are merged into one cycle of batches:
100 small ones (8 insertions + 8 deletions) and 14 medium ones (64 + 64)
in a fixed order, then one burst (1000 + 1000).  One operation is one
batch: ``StreamSession.apply`` followed by ``StreamSession.query``.

A run replays the cycle several times, each time on a session set up
afresh with the initial window, and takes each batch's fastest replay.
The replays do identical work, so the best of them sets aside the
stretches in which the host ran slow.  The number of replays follows
``--seconds``, so a faster program does the same work in less time.

After every burst and every twentieth batch, outside the timed spans, the
session's answer is compared with a fresh ``pkmc`` run on the window the
stream should hold by then, built from the timeline rather than from the
session: k*, the vertex set and the density must match.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.datasets import sliding_window_stream
from repro.datasets.registry import load_undirected
from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.graph.undirected import UndirectedGraph
from repro.stream import StreamSession

from .common import Ops, RunArgs
from .spans import span_median
from .stats import percentile

DATASET = "EU"
#: Share of the timeline loaded as the initial window.
WINDOW_FRACTION = 0.7
#: Seed of the edge timeline and of the batch order.  The workload seed
#: renames the vertices, so every seed streams an isomorphic timeline:
#: when the seed drew the timeline itself, updates/s differed by up to
#: 1.5x between seeds, because the cost depends on which edges form the
#: window.
TIMELINE_SEED = 0
#: Edges inserted (and deleted) per step of the underlying stream.
STEP_EDGES = 8
#: Steps merged into one batch, by batch kind.
KIND_STEPS = {"small": 1, "medium": 8, "burst": 125}
#: Batches of the cycle before its closing burst.  Medium batches are 12%
#: of the cycle, which puts p90 among them; 115 batches give p90 ten
#: samples beyond it.
CYCLE_MIX = {"small": 100, "medium": 14}
#: Seconds of ``--seconds`` per replay.  A replay and its set-up take
#: about 8 s on a 2-CPU x86-64 host, so a run lasts about twice
#: ``--seconds``: with three replays, whole runs still fell into one slow
#: stretch of the host, and the median batch spread by a third across runs.
REPLAY_SECONDS = 4.0
#: Replays per run at least.
MIN_REPLAYS = 3
#: Every this many batches (and after each burst) the answer is checked.
CHECK_EVERY = 20


@dataclass
class Batch:
    """One batch of the plan."""

    kind: str
    insertions: np.ndarray
    deletions: np.ndarray
    #: Stream steps consumed once this batch is applied.
    steps_done: int


@dataclass
class Setup:
    """The initial window, the planned batches and a loaded session."""

    num_vertices: int
    initial: np.ndarray
    plan: list[Batch]
    #: Every edge in arrival order: the initial window, then each step's insertions.
    timeline: np.ndarray
    session: StreamSession | None = None

    def new_session(self) -> StreamSession:
        """A session holding the initial window, its k*-core converged."""
        session = StreamSession(self.num_vertices)
        session.apply(self.initial)
        session.query()
        return session

    def expected_graph(self, batch: Batch) -> UndirectedGraph:
        """The graph the window holds once ``batch`` is applied."""
        start = batch.steps_done * STEP_EDGES
        edges = self.timeline[start:start + len(self.initial)]
        return UndirectedGraph.from_edges(self.num_vertices, edges)


def plan_cycle(steps: list) -> list[Batch]:
    """Merge stream steps into the cycle's batches, in a fixed order."""
    mix = [kind for kind, n in CYCLE_MIX.items() for _ in range(n)]
    order = [*np.random.default_rng(TIMELINE_SEED).permutation(mix), "burst"]
    plan = []
    cursor = 0
    for kind in order:
        if cursor + KIND_STEPS[kind] > len(steps):
            raise ValueError("the stream is too short for one cycle")
        chunk = steps[cursor:cursor + KIND_STEPS[kind]]
        cursor += KIND_STEPS[kind]
        plan.append(
            Batch(
                str(kind),
                np.concatenate([step.insertions for step in chunk]),
                np.concatenate([step.deletions for step in chunk]),
                cursor,
            )
        )
    return plan


def build(seed: int) -> Setup:
    """Generate the stream, plan the batches and load the initial window."""
    load_undirected.cache_clear()  # every repetition generates afresh
    graph = load_undirected(DATASET)
    initial, steps = sliding_window_stream(
        graph, window_fraction=WINDOW_FRACTION, batch_size=STEP_EDGES, seed=TIMELINE_SEED
    )
    rename = np.random.default_rng(seed).permutation(graph.num_vertices)
    initial = rename[initial]
    steps = [
        replace(step, insertions=rename[step.insertions], deletions=rename[step.deletions])
        for step in steps
    ]
    timeline = np.concatenate([initial] + [step.insertions for step in steps])
    setup = Setup(graph.num_vertices, initial, plan_cycle(steps), timeline)
    setup.session = setup.new_session()
    return setup


def stream_mismatch(got, expected) -> str | None:
    """Why a maintained answer differs from a fresh solve, or None."""
    if got.k_star != expected.k_star:
        return f"k* {got.k_star} != fresh pkmc {expected.k_star}"
    if not np.array_equal(np.sort(got.vertices), np.sort(expected.vertices)):
        return "vertex set differs from a fresh pkmc"
    if got.density != expected.density:
        return f"density {got.density!r} != fresh pkmc {expected.density!r}"
    return None


def _traced(replay: int, index: int) -> bool:
    """Whether a traced run traces batch ``index`` of ``replay``."""
    return (replay + index) % 2 == 0


def play(
    setup: Setup, session: StreamSession, replay: int, tracer, ops: Ops, fresh: dict
) -> list:
    """Apply the plan to ``session`` once; return each batch's latency.

    A failed batch's latency is None.  Operation ids number the batches
    of all replays in order.  Every second batch is traced, alternating
    between replays, so each batch is timed both traced and untraced.
    ``fresh`` holds the fresh solves checked against, by batch index; the
    first replay to reach a checkpoint computes its solve.
    """
    latencies: list = []
    for index, batch in enumerate(setup.plan):
        op = replay * len(setup.plan) + index + 1
        traced = tracer.enabled and _traced(replay, index)
        begin = time.perf_counter()
        try:
            with tracer.span("bench.batch", op, traced):
                with tracer.span("stream.apply", op, traced):
                    changed = session.apply(batch.insertions, batch.deletions)
                with tracer.span("stream.query", op, traced):
                    result = session.query()
        except Exception as exc:  # a failed batch is a failed operation
            latencies.append(None)
            ops.record(f"replay {replay} batch {index}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - begin)
        effective = changed["inserted"] + changed["deleted"]
        problem = None
        if effective != len(batch.insertions) + len(batch.deletions):
            problem = f"only {effective} updates of the batch took effect"
        elif batch.kind == "burst" or (index + 1) % CHECK_EVERY == 0:
            if index not in fresh:
                graph = setup.expected_graph(batch)
                fresh[index] = engine_run("pkmc", graph, ExecutionContext())
            problem = stream_mismatch(result, fresh[index])
        ops.record(problem and f"replay {replay} batch {index}: {problem}")
    return latencies


def run(args: RunArgs, ops: Ops) -> None:
    """Set up and play the replays, alternately, and report the metrics."""
    replays = max(MIN_REPLAYS, round(args.seconds / REPLAY_SECONDS))
    tracer = args.tracer
    runs: list[list] = []
    counters: dict = {}
    fresh: dict = {}
    for replay in range(replays):
        setup = None  # each replay streams into a session set up afresh
        setup = args.phases.setup(lambda: build(args.seed))
        session, setup.session = setup.session, None
        before = session.stats()
        with args.phases.timed():
            runs.append(play(setup, session, replay, tracer, ops, fresh))
        after = session.stats()
        counters = {key: after[key] - before[key] for key in
                    ("rebuilds", "incremental_refreshes", "affected_total", "total_sweeps")}
        del session
    args.report_phases()

    # Each batch's fastest replay; a batch that failed in every replay has none.
    best = [min((t for t in times if t is not None), default=None) for times in zip(*runs)]
    timed = [(batch, t) for batch, t in zip(setup.plan, best) if t is not None]
    report = args.report
    report.set("latency_s", statistics.median(t for _, t in timed))
    updates = sum(len(batch.insertions) + len(batch.deletions) for batch, _ in timed)
    report.set("throughput_per_s", updates / sum(t for _, t in timed))
    if not tracer.enabled:
        return

    report.set("stream.latency_p90_s", percentile([t for _, t in timed], 90))
    spans, plan = tracer.spans, setup.plan
    report.set("stream.apply_s", span_median(spans, "stream.apply"))
    for metric, kind in (("stream.query_small_s", "small"), ("stream.query_burst_s", "burst")):
        of_kind = {s.op for s in spans if plan[(s.op - 1) % len(plan)].kind == kind}
        report.set(metric, span_median(spans, "stream.query", of_kind))
    rebuilds, incremental = counters["rebuilds"], counters["incremental_refreshes"]
    report.set("stream.rebuilds", rebuilds)
    report.set("stream.incremental_fraction", incremental / max(incremental + rebuilds, 1))
    report.set("stream.affected_vertices", counters["affected_total"])
    report.set("stream.total_sweeps", counters["total_sweeps"])
    # Per batch: its fastest traced replay minus its fastest untraced one.
    gaps = []
    for index, times in enumerate(zip(*runs)):
        split = ([], [])
        for replay, seconds in enumerate(times):
            if seconds is not None:
                split[_traced(replay, index)].append(seconds)
        if split[0] and split[1]:
            gaps.append(min(split[1]) - min(split[0]))
    report.set("bench.trace_overhead_s", statistics.median(gaps))

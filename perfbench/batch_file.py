"""``batch-file``: cold jobs, each timed from an input file to its answer.

One round runs three jobs on the repository's largest graphs, one per
storage format, with no result cache:

* ``uds-text``: undirected Chung-Lu 60k/360k (seed 11) as edge-list text
  -> ``store.read_edges_vectorized`` -> ``UndirectedGraph.from_edges``
  -> ``pkmc``;
* ``dds-snapshot``: directed Chung-Lu 60k/360k (seed 13) as a ``.npz``
  snapshot -> ``store.load_snapshot`` -> ``pwc``;
* ``uds-shards``: the undirected graph as 8 shards under a 2.5 MiB
  budget -> ``store.load_sharded`` -> ``pkmc-bsp``.

The workload seed relabels both graphs with a seeded vertex permutation,
so every seed gives different files describing isomorphic graphs.  Each
answer is compared with a direct ``engine.run`` on the in-memory graph,
computed before the timed phase.  One operation is one job; the
end-to-end latency is that of a whole round, each job at its fastest.  A
run plays a fixed number of rounds for its ``--seconds``, so a faster
program does the same work in less time.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.graph.directed import DirectedGraph
from repro.graph.generators import chung_lu_directed, chung_lu_undirected
from repro.graph.io import write_edgelist
from repro.graph.undirected import UndirectedGraph
from repro.store.reader import read_edges_vectorized
from repro.store.shard import load_sharded, save_sharded
from repro.store.snapshot import load_snapshot, save_snapshot

from .common import SETUP_REPS, Ops, RunArgs, dds_mismatch, uds_mismatch
from .spans import span_median

#: (vertices, edges, Chung-Lu seed) of the two graphs.
UNDIRECTED = (60_000, 360_000, 11)
DIRECTED = (60_000, 360_000, 13)
#: Shard count and resident-byte budget of the ``uds-shards`` job; the
#: budget is ``BENCH_shard.json``'s and forces eviction churn.
SHARDS = 8
SHARD_BUDGET_BYTES = 2_621_440
#: Seconds one round takes on a 2-CPU x86-64 host; sets the rounds per run.
ROUND_SECONDS = 6.5
#: Rounds per run at least: three untraced, or two traced + two untraced.
#: Set-ups are interleaved with the rounds, so the rounds spread over the run.
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 4

JOBS = ("uds-text", "dds-snapshot", "uds-shards")
_SOLVER = {"uds-text": "pkmc", "dds-snapshot": "pwc", "uds-shards": "pkmc-bsp"}


@dataclass
class Inputs:
    """The generated graphs and the files written from them."""

    undirected: UndirectedGraph
    directed: DirectedGraph
    text_path: Path
    snapshot_path: Path
    shard_dir: Path


def _permuted(graph_cls, graph, permutation: np.ndarray):
    """``graph`` with vertex ``v`` renamed ``permutation[v]``."""
    return graph_cls.from_edges(graph.num_vertices, permutation[graph.edges()])


def build_inputs(seed: int, directory: Path) -> Inputs:
    """Generate both graphs for ``seed`` and write the three input files."""
    rng = np.random.default_rng(seed)
    n, m, graph_seed = UNDIRECTED
    undirected = _permuted(
        UndirectedGraph,
        chung_lu_undirected(n, m, seed=graph_seed),
        rng.permutation(n),
    )
    n, m, graph_seed = DIRECTED
    directed = _permuted(
        DirectedGraph,
        chung_lu_directed(n, m, seed=graph_seed),
        rng.permutation(n),
    )
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        undirected,
        directed,
        directory / "graph.txt",
        directory / "graph.npz",
        directory / "shards",
    )
    write_edgelist(undirected, inputs.text_path)
    save_snapshot(directed, inputs.snapshot_path)
    save_sharded(undirected, inputs.shard_dir, shards=SHARDS)
    return inputs


def _uds_text(inputs: Inputs, tracer, op: int, traced: bool):
    with tracer.span("bench.uds-text", op, traced):
        with tracer.span("store.read_edges_vectorized", op, traced):
            with open(inputs.text_path, encoding="utf-8") as stream:
                edge_ids, labels = read_edges_vectorized(stream, str(inputs.text_path))
        with tracer.span("graph.from_edges", op, traced):
            graph = UndirectedGraph.from_edges(len(labels), edge_ids)
        ctx = ExecutionContext()
        with tracer.span("engine.run.pkmc", op, traced):
            result = engine_run("pkmc", graph, ctx)
    return result, ctx, labels


def _dds_snapshot(inputs: Inputs, tracer, op: int, traced: bool):
    with tracer.span("bench.dds-snapshot", op, traced):
        with tracer.span("store.load_snapshot", op, traced):
            graph = load_snapshot(inputs.snapshot_path)
        ctx = ExecutionContext()
        with tracer.span("engine.run.pwc", op, traced):
            result = engine_run("pwc", graph, ctx)
    return result, ctx, None


def _uds_shards(inputs: Inputs, tracer, op: int, traced: bool):
    with tracer.span("bench.uds-shards", op, traced):
        with tracer.span("store.load_sharded", op, traced):
            sharded = load_sharded(
                inputs.shard_dir, memory_budget_bytes=SHARD_BUDGET_BYTES
            )
        ctx = ExecutionContext()
        with tracer.span("engine.run.pkmc-bsp", op, traced):
            result = engine_run("pkmc-bsp", sharded, ctx)
    return result, ctx, sharded


_RUNNERS = {"uds-text": _uds_text, "dds-snapshot": _dds_snapshot, "uds-shards": _uds_shards}


def check_answer(job: str, result, extra, reference) -> str | None:
    """Why a job's answer differs from its reference, or None."""
    if job == "uds-text":
        # The reader numbers vertices in first-seen order; map back.
        original = np.asarray(extra, dtype=np.int64)[result.vertices]
        return uds_mismatch(result, reference, vertices=original)
    if job == "dds-snapshot":
        return dds_mismatch(result, reference)
    return uds_mismatch(result, reference)


def run(args: RunArgs, ops: Ops) -> None:
    """Set up and run the rounds, alternately, and report the metrics."""
    tracer = args.tracer
    count = max(
        MIN_ROUNDS_TRACED if tracer.enabled else MIN_ROUNDS,
        round(args.seconds / ROUND_SECONDS),
    )
    # Per job: (seconds, traced) of each round in which it succeeded.
    job_times: dict[str, list[tuple[float, bool]]] = {job: [] for job in JOBS}
    last: dict[str, tuple] = {}
    references: dict = {}
    # SETUP_REPS set-ups, spread evenly over the rounds.
    setup_rounds = {math.ceil(k * count / SETUP_REPS) for k in range(SETUP_REPS)}
    op = 0
    for number in range(count):
        if number in setup_rounds:
            inputs = None  # the next round reads files written afresh
            shutil.rmtree(args.workdir, ignore_errors=True)
            inputs = args.phases.setup(lambda: build_inputs(args.seed, args.workdir))
        if not references:  # the checker's cost, outside every phase
            references = {
                "uds-text": engine_run("pkmc", inputs.undirected, ExecutionContext()),
                "dds-snapshot": engine_run("pwc", inputs.directed, ExecutionContext()),
                "uds-shards": engine_run("pkmc-bsp", inputs.undirected, ExecutionContext()),
            }
        traced = tracer.enabled and number % 2 == 1
        with args.phases.timed():
            for job in JOBS:
                op += 1
                begin = time.perf_counter()
                try:
                    result, ctx, extra = _RUNNERS[job](inputs, tracer, op, traced)
                except Exception as exc:  # a failed job is a failed operation
                    ops.record(f"{job}: {exc!r}")
                    continue
                elapsed = time.perf_counter() - begin
                problem = check_answer(job, result, extra, references[job])
                ops.record(problem and f"{job}: {problem}")
                job_times[job].append((elapsed, traced))
                last[job] = (result, ctx, extra)
    args.report_phases()

    report = args.report
    # Each job's fastest round: the rounds do identical work, so the best
    # of them sets aside the stretches in which the host ran slow.
    best = {job: min(t for t, _ in times) for job, times in job_times.items()}
    round_s = sum(best.values())
    report.set("latency_s", round_s)
    report.set("throughput_per_s", len(JOBS) / round_s)
    if not tracer.enabled:
        return

    report.set("batch.text_to_answer_s", best["uds-text"])
    report.set("batch.snapshot_to_answer_s", best["dds-snapshot"])
    report.set("batch.shards_to_answer_s", best["uds-shards"])
    spans = tracer.spans
    for metric, name in (
        ("store.parse_s", "store.read_edges_vectorized"),
        ("graph.build_s", "graph.from_edges"),
        ("store.snapshot_load_s", "store.load_snapshot"),
        ("store.shard_open_s", "store.load_sharded"),
        ("engine.run_s.pkmc", "engine.run.pkmc"),
        ("engine.run_s.pwc", "engine.run.pwc"),
        ("engine.run_s.pkmc-bsp", "engine.run.pkmc-bsp"),
    ):
        report.set(metric, span_median(spans, name))
    for job, solver in _SOLVER.items():
        result, ctx, extra = last[job]
        report.set(f"core.iterations.{solver}", result.report.iterations)
        if job != "uds-shards":
            report.set(f"kernels.items.{solver}", ctx.runtime.metrics.items_processed)
            report.set(f"runtime.simulated_s.{solver}", result.report.simulated_seconds)
    result, _, sharded = last["uds-shards"]
    stats = sharded.stats()
    report.set("shard.loads", stats["shard_loads"])
    report.set("shard.evictions", stats["evictions"])
    report.set("shard.peak_resident_bytes", stats["peak_resident_bytes"])
    report.set("distributed.boundary_bytes", result.report.boundary_messages_bytes)
    report.set(
        "bench.trace_overhead_s",
        sum(
            min(t for t, traced in times if traced) - min(t for t, traced in times if not traced)
            for times in job_times.values()
        ),
    )

"""``serve-zipf``: open-loop query serving from a warm result cache.

Queries come from the seeded ``hot-graph`` Zipf mix over the registry
replicas PT/EW/EU/IT and the solvers pkmc/local/charikar/pkc (16 keys).
The graphs are preloaded.  One ``DsdServer`` answers them with a
bounded LRU result cache of 15 entries and no TTL, so which queries miss
depends on the query sequence, not on wall-clock expiry.  A warm-up
prefix of the mix fills the cache before the timed phase.

Queries are due at a fixed offered rate (:mod:`perfbench.loadgen`).  A
query's latency runs from its due time to its response.  Every response
is compared bit for bit with a direct ``engine.run`` of the same query.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.datasets.registry import load_undirected
from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.errors import ServeRejected
from repro.serve import DsdServer, build_query_mix
from repro.store.memo import ResultCache

from .common import SETUP_REPS, InvalidRun, Ops, RunArgs, uds_mismatch
from .loadgen import Sent, backlog_growing, run_open_loop
from .stats import percentile, windowed_median

DATASETS = ("PT", "EW", "EU", "IT")
SOLVERS = ("pkmc", "local", "charikar", "pkc")
#: Offered load, queries per second.
RATE_QPS = 60.0
#: Timed queries per run at least, so that p99 has ten samples beyond it.
MIN_QUERIES = 1000
#: Result-cache entries: fewer than the mix's 16 keys.
CACHE_ENTRIES = 15
#: Queries replayed before the timed phase to fill the cache.
WARMUP_QUERIES = 300
#: The latency limit of ``serve.slo_attainment``: about three times the
#: slowest single solve in the mix (charikar on IT, ~0.47 s on a 2-CPU
#: x86-64 host).
SLO_LIMIT_S = 1.5
#: Consecutive slices of the schedule whose median latencies give the p50.
P50_WINDOWS = 5
#: Admission bound, high enough that the offered load is never shed.
MAX_QUEUE_DEPTH = 4096


@dataclass
class Setup:
    """Preloaded graphs, the server and the query stream."""

    graphs: dict
    server: DsdServer
    warmup: list
    queries: list


def build(seed: int, count: int) -> Setup:
    """Load the replicas, build the server and draw the seeded query mix."""
    load_undirected.cache_clear()  # every repetition generates afresh
    graphs = {name: load_undirected(name) for name in DATASETS}
    mix = build_query_mix(
        "hot-graph", DATASETS, SOLVERS, WARMUP_QUERIES + count, seed=seed
    )
    server = DsdServer(
        graphs,
        max_queue_depth=MAX_QUEUE_DEPTH,
        cache=ResultCache(max_entries=CACHE_ENTRIES, clock=time.perf_counter),
        clock=time.perf_counter,
    )
    return Setup(graphs, server, mix[:WARMUP_QUERIES], mix[WARMUP_QUERIES:])


@dataclass
class Served:
    """What happened to one timed query."""

    sent: Sent
    response: object = None
    drain: int = -1
    problem: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the response."""
        return self.sent.lateness + self.response.latency_s


def account(served: list[Served], queries: list, references: dict, ops: Ops) -> None:
    """Check every timed query's outcome and count it as one operation."""
    for item in served:
        problem = item.problem
        if problem is None and item.response is None:
            problem = "no response"
        if problem is None and not item.response.ok:
            problem = f"status {item.response.status} ({item.response.reason})"
        if problem is None:
            query = queries[item.sent.index]
            problem = uds_mismatch(
                item.response.result, references[query.dataset, query.solver]
            )
        item.problem = problem
        ops.record(problem and f"query {item.sent.index}: {problem}")


def run(args: RunArgs, ops: Ops) -> None:
    """Set up, serve the timed schedule and report the metrics."""
    count = max(MIN_QUERIES, round(RATE_QPS * args.seconds))
    for _ in range(SETUP_REPS):
        setup = None  # each repetition builds everything afresh
        setup = args.phases.setup(lambda: build(args.seed, count))

    references = {
        (name, solver): engine_run(solver, graph, ExecutionContext())
        for name, graph in setup.graphs.items()
        for solver in SOLVERS
    }
    server, queries = setup.server, setup.queries
    for offset in range(0, WARMUP_QUERIES, 50):
        server.serve(setup.warmup[offset:offset + 50])
    stats_before = server.stats.as_dict()
    cache_before = server.cache_stats()

    served: dict[int, Served] = {}
    drains: list[tuple[float, float]] = []
    depths: list[int] = []

    def submit(index: int) -> bool:
        try:
            server.submit(queries[index])
        except ServeRejected as exc:
            served[index] = Served(None, problem=f"rejected: {exc.reason}")
            return False
        except Exception as exc:  # counted as a failed operation
            served[index] = Served(None, problem=f"submit raised {exc!r}")
            return False
        depths.append(server.queue_depth)
        return True

    def drain(indices: list[int]) -> None:
        begin = time.perf_counter()
        try:
            responses = server.drain()
        except Exception as exc:  # every queued query is lost
            responses = []
            for index in indices:
                served[index] = Served(None, problem=f"lost: drain raised {exc!r}")
        drains.append((begin, time.perf_counter()))
        if responses and len(responses) != len(indices):
            for index in indices:
                served[index] = Served(None, problem="drain returned a wrong count")
            return
        for index, response in zip(indices, responses):
            served[index] = Served(None, response, len(drains) - 1)

    with args.phases.timed():
        start, sent = run_open_loop(
            count, RATE_QPS, submit, drain, time.perf_counter, time.sleep
        )
    args.report_phases()
    end = drains[-1][1] if drains else time.perf_counter()

    for record in sent:
        served[record.index].sent = record
    items = [served[record.index] for record in sent]
    account(items, queries, references, ops)
    if backlog_growing(sent, SLO_LIMIT_S):
        raise InvalidRun(
            "the generator fell ever further behind its schedule "
            f"(offered {RATE_QPS:g} qps); latencies would not describe a steady state"
        )

    ok = [item for item in items if item.problem is None]
    latencies = [item.latency for item in ok]
    report = args.report
    report.set("latency_s", windowed_median(latencies, P50_WINDOWS))
    report.set("throughput_per_s", len(ok) / (end - start))
    if not args.tracer.enabled:
        return

    report.set("serve.latency_p99_s", percentile(latencies, 99))
    report.set(
        "serve.slo_attainment",
        sum(latency <= SLO_LIMIT_S for latency in latencies) / len(items),
    )
    report.set(
        "serve.submit_s",
        statistics.median(r.submit_end - r.submit_start for r in sent),
    )
    report.set("serve.busy_fraction", sum(b - a for a, b in drains) / (end - start))
    flights: dict[tuple, tuple[bool, float]] = {}
    for item in ok:
        response = item.response
        key = (item.drain, response.query.dataset, response.query.solver)
        flights[key] = (
            response.result.report.cache_hit,
            response.latency_s - response.queue_wait_s,
        )
    for metric, hit in (("serve.flight_hit_s", True), ("serve.flight_miss_s", False)):
        times = [seconds for was_hit, seconds in flights.values() if was_hit == hit]
        if times:
            report.set(metric, statistics.median(times))
    report.set(
        "serve.queue_wait_p50_s",
        statistics.median(item.response.queue_wait_s for item in ok),
    )
    report.set("serve.queue_depth_mean", statistics.fmean(depths))
    report.set("serve.peak_queue_depth", max(depths))
    stats = server.stats.as_dict()
    delta = {key: stats[key] - stats_before[key] for key in stats}
    report.set("serve.solver_runs", delta["solver_runs"])
    report.set("serve.coalesced", delta["coalesced_queries"])
    report.set(
        "serve.reuse_ratio",
        (delta["cache_hits"] + delta["coalesced_queries"]) / max(delta["completed"], 1),
    )
    report.set("serve.rejected", delta["rejected_queue_full"] + delta["rejected_quota"])
    cache = server.cache_stats()
    report.set("memo.hits", cache["hits"] - cache_before["hits"])
    report.set("memo.misses", cache["misses"] - cache_before["misses"])
    report.set("loadgen.lag_p99_s", percentile([r.lateness for r in sent], 99))

    # Spans are derived after the timed phase from timestamps the loop
    # takes anyway, so tracing adds no work while queries are served.
    tracer = args.tracer
    for item in ok:
        record, response = item.sent, item.response
        flight_end = record.submit_start + response.latency_s
        flight_start = max(record.submit_end, flight_end - (response.latency_s - response.queue_wait_s))
        root = tracer.record("bench.query", record.index, record.due, flight_end)
        tracer.record("loadgen.lag", record.index, record.due, record.submit_start, root)
        tracer.record("serve.submit", record.index, record.submit_start, record.submit_end, root)
        tracer.record("serve.queue_wait", record.index, record.submit_end, flight_start, root)
        tracer.record("serve.flight", record.index, flight_start, flight_end, root)
    report.set("bench.trace_overhead_s", 0.0)

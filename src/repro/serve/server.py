"""`DsdServer` — the long-lived, simulated-concurrent DSD query front-end.

The serving loop that turns the fast library into a system (ROADMAP item
1): queries stream in through :meth:`DsdServer.submit`, pass admission
control (bounded queue depth, per-tenant token-bucket quotas — shed work
raises :class:`~repro.errors.ServeRejected` instead of growing the queue
without bound), and are answered in :meth:`DsdServer.drain` cycles that
exploit the two redundancies real traffic has:

* **single-flight coalescing** — queries that are the *same work* (same
  graph fingerprint, solver, options and server policy, i.e. the same
  :func:`repro.store.memo.make_cache_key`) share one in-flight
  computation; followers receive independent clones of the leader's
  result, bit-identical to running the solver themselves;
* **per-graph batching** — flights are grouped by graph fingerprint so
  the per-graph setup (CSR scratch warming, the multiproc backend's
  published shared-memory segment) is paid once per batch and stays hot
  in the backend's LRU instead of thrashing across interleaved graphs.

Below the coalescing sits the TTL-aware
:class:`~repro.store.memo.ResultCache`, so repetition *across* drain
cycles is also near-free.  Concurrency is simulated, in line with the
library's `SimRuntime` philosophy: one Python process executes batches
serially, attributing each batch to a worker of the bounded pool
round-robin — scheduling is deterministic, and all wall-clock
measurements come from one injectable monotonic clock.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from ..backends import resolve_backend_name
from ..datasets.registry import get_spec, load_directed, load_undirected
from ..engine import ExecutionContext, attach_serve_stats, resolve_solver
from ..engine import run as engine_run
from ..errors import ServeRejected
from ..store.memo import ResultCache, clone_result, make_cache_key
from .query import Query, Response
from .quota import TenantQuotas

__all__ = ["DsdServer", "ServerStats"]


@dataclass
class ServerStats:
    """Monotonic counters describing a server's lifetime of traffic.

    ``solver_runs`` counts actual solver executions (cache misses);
    ``cache_hits`` counts flights answered by the result cache;
    ``coalesced_queries`` counts queries that attached to another
    query's flight (followers only, so ``completed = solver_runs +
    cache_hits + coalesced_queries``). ``errored`` counts queries whose
    flight raised; every accepted query ends up in exactly one of
    ``completed`` or ``errored`` once drained. ``peak_queue_depth`` is the
    admission queue's observed high-water mark — bounded by
    ``max_queue_depth`` by construction, which is the "no unbounded
    queue growth" guarantee the overload bench asserts.
    """

    submitted: int = 0
    accepted: int = 0
    completed: int = 0
    errored: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0
    solver_runs: int = 0
    cache_hits: int = 0
    coalesced_queries: int = 0
    batches: int = 0
    flights: int = 0
    peak_queue_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-serialisable counter snapshot."""
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "completed": self.completed,
            "errored": self.errored,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_quota": self.rejected_quota,
            "solver_runs": self.solver_runs,
            "cache_hits": self.cache_hits,
            "coalesced_queries": self.coalesced_queries,
            "batches": self.batches,
            "flights": self.flights,
            "peak_queue_depth": self.peak_queue_depth,
        }


@dataclass
class _Pending:
    """One admitted query waiting for the next drain cycle."""

    seq: int
    query: Query
    graph: Any
    spec: Any
    flight_key: tuple
    enqueued_at: float


class DsdServer:
    """Batched, cache-backed, admission-controlled DSD query service.

    ``graphs`` maps dataset names to pre-built graph objects; names not
    in the table fall back to the synthetic replica registry
    (:mod:`repro.datasets`), so ``Query(dataset="PT", solver="pkmc")``
    works out of the box.  Execution policy — ``num_threads``,
    ``backend``, ``frontier`` — is fixed per server, *not* per query:
    that is what makes equal queries equal work, so coalescing and
    caching can be exact rather than heuristic.

    ``max_queue_depth`` bounds the admission queue; ``quotas`` (a
    :class:`~repro.serve.quota.TenantQuotas`) bounds each tenant's
    sustained rate.  :meth:`submit` checks queue capacity first (a shed
    query never spends quota tokens), then the tenant bucket, and
    raises :class:`~repro.errors.ServeRejected` with retry-after
    metadata on either failure — FIFO shedding order: earlier
    submissions hold their queue slots, later ones are shed.

    The result cache defaults to a server-private TTL-aware
    :class:`~repro.store.memo.ResultCache` sharing the server's clock;
    pass ``cache=`` to share one across servers, or ``cache_entries=0``
    to disable caching (coalescing still applies within a drain).
    ``clock`` is a zero-argument monotonic-seconds callable used for
    every timestamp (queue wait, latency, TTL, quota refill) — inject a
    fake clock for deterministic tests.
    """

    def __init__(
        self,
        graphs: Optional[Mapping[str, Any]] = None,
        *,
        num_workers: int = 2,
        max_queue_depth: int = 64,
        cache: Optional[ResultCache] = None,
        cache_entries: int = 256,
        cache_ttl: Optional[float] = None,
        quotas: Optional[TenantQuotas] = None,
        num_threads: int = 1,
        backend: Optional[str] = None,
        frontier: Optional[bool] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.num_workers = num_workers
        self.max_queue_depth = max_queue_depth
        self.num_threads = num_threads
        # Resolving eagerly makes an unknown backend fail at server
        # construction, not on the first unlucky query.
        self.backend = resolve_backend_name(backend)
        self.frontier = frontier
        # Serving measures real elapsed time by definition; tests and
        # the replay bench inject deterministic clocks instead.
        self._clock = clock if clock is not None else time.monotonic  # repro-lint: disable=R001 (injectable serving clock)
        if cache is not None:
            self._cache: Optional[ResultCache] = cache
        elif cache_entries > 0:
            self._cache = ResultCache(
                max_entries=cache_entries, ttl=cache_ttl, clock=self._clock
            )
        else:
            self._cache = None
        self._quotas = quotas
        self._graphs: dict[str, Any] = dict(graphs or {})
        self._queue: deque[_Pending] = deque()
        self._seq = 0
        self.stats = ServerStats()

    # -- graph resolution -------------------------------------------------

    def _resolve_graph(self, dataset: str) -> Any:
        graph = self._graphs.get(dataset)
        if graph is None:
            spec = get_spec(dataset)  # DatasetError on unknown names
            graph = (
                load_undirected(dataset)
                if spec.kind == "undirected"
                else load_directed(dataset)
            )
            self._graphs[dataset] = graph
        return graph

    def _flight_key(self, graph: Any, spec: Any, query: Query, seq: int) -> tuple:
        """Single-flight identity of a query: the memo cache key.

        Queries whose engine run would be uncacheable (unhashable
        options) get a unique per-sequence key — they never coalesce,
        matching the cache's refusal to serve them.
        """
        merged = dict(spec.default_options)
        merged.update(query.params)
        template = ExecutionContext(
            num_threads=self.num_threads,
            frontier=self.frontier,
        )
        key = make_cache_key(
            graph.fingerprint(), spec.kind, spec.name, template, merged,
            backend=self.backend,
        )
        if key is None:
            return ("__uncacheable__", seq)
        return key

    # -- admission --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queries currently admitted and waiting for a drain cycle."""
        return len(self._queue)

    def submit(self, query: Query) -> int:
        """Admit ``query``; return its sequence number.

        Validation (unknown dataset/solver) raises the library's normal
        errors.  Admission control raises
        :class:`~repro.errors.ServeRejected`: ``queue_full`` when the
        bounded queue has no slot (checked first — shed queries never
        spend quota tokens), ``quota`` when the tenant's token bucket is
        empty (with the exact next-token delay as ``retry_after_s``).
        """
        now = self._clock()
        self.stats.submitted += 1
        graph = self._resolve_graph(query.dataset)
        spec = resolve_solver(query.solver, graph)
        if len(self._queue) >= self.max_queue_depth:
            self.stats.rejected_queue_full += 1
            raise ServeRejected(
                "queue_full",
                retry_after_s=0.0,
                detail=f"queue depth {len(self._queue)} at capacity",
            )
        if self._quotas is not None:
            delay = self._quotas.admit(query.tenant, now)
            if delay > 0.0:
                self.stats.rejected_quota += 1
                raise ServeRejected(
                    "quota",
                    retry_after_s=delay,
                    detail=f"tenant {query.tenant!r} out of tokens",
                )
        seq = self._seq
        self._seq += 1
        self._queue.append(
            _Pending(
                seq=seq,
                query=query,
                graph=graph,
                spec=spec,
                flight_key=self._flight_key(graph, spec, query, seq),
                enqueued_at=now,
            )
        )
        self.stats.accepted += 1
        self.stats.peak_queue_depth = max(
            self.stats.peak_queue_depth, len(self._queue)
        )
        return seq

    # -- execution --------------------------------------------------------

    @staticmethod
    def _prewarm(graph: Any) -> None:
        """Touch the graph's cached scratch accessors once per batch.

        The accessors memoize on the graph object, so the first flight
        of a batch pays the build and every later flight (and batch on
        the same graph) reuses the frozen buffers.
        """
        if hasattr(graph, "degrees"):
            graph.degrees()
        else:
            graph.out_degrees()
            graph.in_degrees()

    def _run_flight(self, leader: _Pending) -> Any:
        """Execute one flight's computation under the server's policy."""
        ctx = ExecutionContext(
            num_threads=self.num_threads,
            frontier=self.frontier,
            backend=self.backend,
            cache=self._cache,
        )
        result = engine_run(leader.spec, leader.graph, ctx, **leader.query.params)
        if result.report.cache_hit:
            self.stats.cache_hits += 1
        else:
            self.stats.solver_runs += 1
        return result

    def drain(self) -> list[Response]:
        """Serve everything queued; return responses in submission order.

        One drain cycle: group admitted queries into single-flight
        groups by flight key, group flights into batches by graph
        fingerprint (ordered by each batch's earliest submission),
        schedule batches round-robin over the simulated worker pool, and
        run each flight once — leader result via the engine (which may
        itself answer from the TTL cache), follower responses as
        independent clones.  Every response's report carries its own
        ``queue_wait_s`` and the flight's ``batch_size``/``coalesced``.

        A flight whose computation raises answers its own members with
        ``status="error"`` responses (``reason`` names the exception);
        every other flight of the cycle still runs and answers.
        """
        pending = list(self._queue)
        self._queue.clear()
        if not pending:
            return []

        flights: "OrderedDict[tuple, list[_Pending]]" = OrderedDict()
        for item in pending:
            flights.setdefault(item.flight_key, []).append(item)
        batches: "OrderedDict[str, list[list[_Pending]]]" = OrderedDict()
        for members in flights.values():
            batches.setdefault(members[0].graph.fingerprint(), []).append(members)

        ordered: list[tuple[int, Response]] = []
        for batch_index, batch_flights in enumerate(batches.values()):
            worker_id = batch_index % self.num_workers
            batch_size = sum(len(members) for members in batch_flights)
            self._prewarm(batch_flights[0][0].graph)
            self.stats.batches += 1
            for members in batch_flights:
                started = self._clock()
                self.stats.flights += 1
                result, reason = None, None
                try:
                    result = self._run_flight(members[0])
                except Exception as exc:  # repro-lint: disable=R002 (fault boundary: fails this flight only)
                    reason = f"{type(exc).__name__}: {exc}"
                finished = self._clock()
                if reason is None:
                    self.stats.completed += len(members)
                    self.stats.coalesced_queries += len(members) - 1
                else:
                    self.stats.errored += len(members)
                for index, item in enumerate(members):
                    queue_wait = max(0.0, started - item.enqueued_at)
                    answer = None
                    if reason is None:
                        answer = result if index == 0 else clone_result(result)
                        attach_serve_stats(
                            answer,
                            queue_wait_s=queue_wait,
                            batch_size=batch_size,
                            coalesced=len(members),
                        )
                    ordered.append(
                        (
                            item.seq,
                            Response(
                                query=item.query,
                                status="ok" if reason is None else "error",
                                result=answer,
                                reason=reason,
                                worker_id=worker_id,
                                queue_wait_s=queue_wait,
                                batch_size=batch_size,
                                coalesced=len(members),
                                latency_s=max(0.0, finished - item.enqueued_at),
                            ),
                        )
                    )

        ordered.sort(key=lambda pair: pair[0])
        return [response for _, response in ordered]

    def serve(self, queries: list[Query]) -> list[Response]:
        """Submit a burst then drain: one response per query, in order.

        Rejected queries become ``status="rejected"`` responses instead
        of raising, so replay harnesses can account shed traffic without
        try/except at every call site.
        """
        admitted: list[int] = []
        rejections: dict[int, Response] = {}
        for position, query in enumerate(queries):
            try:
                self.submit(query)
            except ServeRejected as shed:
                rejections[position] = Response(
                    query=query,
                    status="rejected",
                    reason=shed.reason,
                    retry_after_s=shed.retry_after_s,
                )
            else:
                admitted.append(position)
        served = self.drain()
        merged: list[Response] = []
        served_iter = iter(served)
        for position in range(len(queries)):
            if position in rejections:
                merged.append(rejections[position])
            else:
                merged.append(next(served_iter))
        return merged

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/expired counters of the result cache (zeros if off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "expired": 0, "entries": 0}
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "expired": self._cache.expired,
            "entries": len(self._cache),
        }

    def close(self) -> None:
        """Drop queued work and resolved graphs; the server stays usable."""
        self._queue.clear()
        self._graphs.clear()

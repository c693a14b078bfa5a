"""Query/response records for the DSD serving layer.

A :class:`Query` names *what* to compute — dataset (or explicit graph),
registry solver name, solver options, and the tenant submitting it — and
deliberately carries none of the *how* (threads, backend, cache): those
are server policy, fixed per :class:`~repro.serve.server.DsdServer` so
that identical queries from different users are identical work and can
be coalesced.  A :class:`Response` pairs the query with either the
engine result (report augmented with queue-wait/batch/coalescing fields
via :func:`repro.engine.report.attach_serve_stats`) or a structured
rejection mirroring :class:`~repro.errors.ServeRejected`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Query", "Response"]


@dataclass(frozen=True)
class Query:
    """One densest-subgraph request in a serving stream.

    ``dataset`` is a graph name the server can resolve (a replica
    abbreviation like ``"PT"`` by default, or any key of the server's
    explicit graph table); ``solver`` is a registry name (``"pkmc"``,
    ``"charikar"``, ...); ``params`` are solver options forwarded to
    :func:`repro.engine.run` and participate in the single-flight key,
    so two queries differing only in ``params`` never coalesce;
    ``tenant`` is the quota-accounting principal.
    """

    dataset: str
    solver: str
    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = "default"

    def __post_init__(self):
        # Defensive copy: queries are shared across the queue and
        # responses, so a caller mutating its dict must not retroactively
        # change an enqueued query (or its flight key).
        object.__setattr__(self, "params", dict(self.params))


@dataclass
class Response:
    """Outcome of one submitted query.

    ``status`` is ``"ok"``, ``"rejected"`` or ``"error"``.  For
    ``"ok"``, ``result`` is the engine result (bit-identical to a direct
    ``engine.run`` of the same query) and the serve statistics are
    mirrored both here and in ``result.report``; ``worker_id`` is the
    simulated worker the query's batch was scheduled on.  For
    ``"rejected"``, ``result`` is None and ``reason``/``retry_after_s``
    carry the admission-control verdict (see
    :class:`~repro.errors.ServeRejected`); the serve statistics stay at
    their zero defaults.  For ``"error"``, the query's flight raised:
    ``result`` is None, ``reason`` names the exception, and the serve
    statistics describe the failed flight.  ``latency_s`` is wall-clock
    submit-to-completion time under the server's clock (0.0 for
    rejections, which never enter the queue).
    """

    query: Query
    status: str
    result: Any = None
    reason: str | None = None
    retry_after_s: float | None = None
    worker_id: int = -1
    queue_wait_s: float = 0.0
    batch_size: int = 0
    coalesced: int = 0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query was admitted and served."""
        return self.status == "ok"

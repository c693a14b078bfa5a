"""In-memory span tracing around the benchmark's calls into each layer.

Spans are recorded by the benchmark's own code, around each call into a
layer; nothing inside the program is instrumented.  A span has a name
(``<layer>.<call>``), a start and end on ``time.perf_counter``, the
index of its parent span and the id of the operation it belongs to.
Each operation has one root span named ``bench.<op kind>``.

A span's self time is its duration minus the part of it covered by its
children.  A layer's self time is the sum over its spans; the root's
self time is what no layer accounts for (``bench.unattributed_s``).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

#: The reconciliation tolerance: an operation's unattributed time may be
#: at most this share of its end-to-end time ...
RECONCILE_SHARE = 0.02
#: ... or this many seconds, whichever is larger (short operations).
RECONCILE_FLOOR_S = 200e-6

ROOT_LAYER = "bench"


@dataclass
class Span:
    """One recorded interval."""

    name: str
    op: int
    start: float
    end: float
    parent: int = -1

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start


class Tracer:
    """Span recorder; every call is a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _open(self, name: str, op: int) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, op, self._clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def span(self, name: str, op: int, traced: bool = True):
        """Context manager timing one call; nested spans become children."""
        if not (self.enabled and traced):
            return contextlib.nullcontext()
        return self._open(name, op)

    def record(
        self, name: str, op: int, start: float, end: float, parent: int = -1
    ) -> int:
        """Add a span whose interval the caller measured; return its index."""
        self.spans.append(Span(name, op, start, end, parent))
        return len(self.spans) - 1

    def dump(self, path: Path) -> None:
        """Write every span as JSON lines to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(start: float, end: float, children: Sequence[Span]) -> float:
    """Length of the union of ``children`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    return [
        span.duration - _covered(span.start, span.end, children[i])
        for i, span in enumerate(spans)
    ]


def layer_self_times(spans: Sequence[Span], by_name: bool = False) -> dict[str, float]:
    """Total self time per layer (or per span name, with ``by_name``).

    The root layer's self time is the time no layer accounts for.
    """
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = span.name if by_name else span.layer
        totals[key] = totals.get(key, 0.0) + own
    return totals


def span_median(spans: Sequence[Span], name: str, ops: Optional[set] = None) -> float:
    """Median duration of the spans called ``name`` (of ``ops`` only, if given)."""
    return statistics.median(
        s.duration for s in spans if s.name == name and (ops is None or s.op in ops)
    )


def unattributed(spans: Sequence[Span]) -> dict[int, tuple[float, float]]:
    """Per operation: (root span duration, root self time)."""
    result: dict[int, tuple[float, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.parent < 0 and span.layer == ROOT_LAYER:
            result[span.op] = (span.duration, own)
    return result


def reconcile(spans: Sequence[Span]) -> list[str]:
    """Operations whose layer spans fail to add up to their root span.

    Returns one message per operation whose unattributed time exceeds
    :data:`RECONCILE_SHARE` of its end-to-end time (or
    :data:`RECONCILE_FLOOR_S`, whichever is larger).
    """
    problems = []
    for op, (total, gap) in sorted(unattributed(spans).items()):
        allowed = max(RECONCILE_SHARE * total, RECONCILE_FLOOR_S)
        if gap > allowed:
            problems.append(
                f"op {op}: {gap * 1e3:.3f} ms of {total * 1e3:.3f} ms "
                f"not attributed to any layer (allowed {allowed * 1e3:.3f} ms)"
            )
    return problems

"""Open-loop load generation from one thread.

Queries are due on a fixed schedule (``start + i / rate``) whether or
not earlier ones have been answered.  The generator submits every query
that is due, then drains the server; while the server is busy, later
queries fall behind schedule.  Each query is timed from its due time,
so that wait counts against it: its latency is its submit lateness plus
the server's own ``Response.latency_s``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Sent:
    """One submitted query: when it was due and when the submit ran."""

    index: int
    due: float
    submit_start: float
    submit_end: float

    @property
    def lateness(self) -> float:
        """Seconds between the due time and the start of the submit."""
        return self.submit_start - self.due


def run_open_loop(
    count: int,
    rate: float,
    submit: Callable[[int], bool],
    drain: Callable[[list[int]], None],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> tuple[float, list[Sent]]:
    """Send ``count`` queries at ``rate`` per second; return (start, sent).

    ``submit(i)`` submits query ``i`` and returns whether the server
    admitted it; ``drain(indices)`` serves the admitted queries.  Both
    are called from this thread only.
    """
    start = clock()
    sent: list[Sent] = []
    admitted: list[int] = []
    i = 0
    while i < count or admitted:
        while i < count and start + i / rate <= clock():
            begin = clock()
            accepted = submit(i)
            sent.append(Sent(i, start + i / rate, begin, clock()))
            if accepted:
                admitted.append(i)
            i += 1
        if admitted:
            drain(admitted)
            admitted = []
        elif i < count:
            sleep(max(0.0, start + i / rate - clock()))
    return start, sent


def backlog_growing(sent: Sequence[Sent], limit_s: float) -> bool:
    """Whether the generator fell ever further behind its schedule.

    True when the median lateness over the last quarter of the schedule
    exceeds both ``limit_s`` and the median over the first quarter: a
    server that keeps up returns to schedule after each stall, so its
    late-run lateness stays bounded.
    """
    quarter = len(sent) // 4
    if quarter == 0:
        return False
    first = statistics.median(s.lateness for s in sent[:quarter])
    last = statistics.median(s.lateness for s in sent[-quarter:])
    return last > limit_s and last > first

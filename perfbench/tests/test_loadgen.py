"""Open-loop lateness accounting."""

import pytest

from perfbench.loadgen import Sent, backlog_growing, run_open_loop


class SimClock:
    """A clock that only moves when the loop sleeps or the server works."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_queries_due_during_a_stall_are_late_by_the_stall():
    clock = SimClock()
    drains = []

    def drain(indices):
        drains.append(list(indices))
        clock.advance(0.25 if indices == [0] else 0.01)

    start, sent = run_open_loop(
        count=5, rate=10.0, submit=lambda i: True, drain=drain,
        clock=clock, sleep=clock.advance,
    )
    assert start == 100.0
    assert [s.due for s in sent] == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])
    # Query 0's drain stalls the generator until 100.25: queries 1 and 2
    # were due during it and are submitted late, together.
    assert drains[:2] == [[0], [1, 2]]
    assert [s.lateness for s in sent] == pytest.approx([0.0, 0.15, 0.05, 0.0, 0.0])


def test_rejected_queries_are_not_drained():
    clock = SimClock()
    drained = []
    run_open_loop(
        count=4, rate=100.0, submit=lambda i: i % 2 == 0,
        drain=drained.extend, clock=clock, sleep=clock.advance,
    )
    assert drained == [0, 2]


def _sent(lateness):
    return [Sent(i, float(i), float(i) + late, float(i) + late) for i, late in enumerate(lateness)]


def test_backlog_growing_only_when_lateness_keeps_rising_past_the_limit():
    assert backlog_growing(_sent([0.1 * i for i in range(40)]), limit_s=1.5)
    # Stalls that recover: bounded lateness, valid run.
    assert not backlog_growing(_sent([0.0, 0.5, 1.0, 0.2] * 10), limit_s=1.5)
    # Late from the start but not worsening.
    assert not backlog_growing(_sent([2.0] * 40), limit_s=1.5)

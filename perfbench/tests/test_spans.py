"""Span recording, self time and reconciliation."""

import pytest

from perfbench.spans import (
    RECONCILE_FLOOR_S,
    Span,
    Tracer,
    layer_self_times,
    reconcile,
    self_times,
    unattributed,
)


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nested_spans_record_parents_and_times():
    tracer = Tracer(True, clock=FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    with tracer.span("bench.job", 7):
        with tracer.span("store.parse", 7):
            pass
        with tracer.span("engine.run", 7):
            pass
    root, parse, run = tracer.spans
    assert (root.start, root.end, root.parent) == (0.0, 10.0, -1)
    assert (parse.start, parse.end, parse.parent) == (1.0, 3.0, 0)
    assert (run.start, run.end, run.parent) == (4.0, 6.0, 0)
    assert all(span.op == 7 for span in tracer.spans)
    assert self_times(tracer.spans) == [6.0, 2.0, 2.0]


def test_disabled_or_untraced_spans_record_nothing():
    tracer = Tracer(False)
    with tracer.span("bench.job", 1):
        pass
    assert tracer.spans == []
    tracer = Tracer(True)
    with tracer.span("bench.job", 1, traced=False):
        pass
    assert tracer.spans == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("bench.op", 1, 0.0, 10.0),
        Span("serve.a", 1, 1.0, 4.0, parent=0),
        Span("serve.b", 1, 3.0, 5.0, parent=0),  # overlaps a: union is 1..5
        Span("store.c", 1, 2.0, 3.0, parent=1),
        Span("engine.d", 1, 9.0, 12.0, parent=0),  # clipped to the parent
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 3 - 1, 2, 1, 3])
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"bench": 5.0, "serve": 4.0, "store": 1.0, "engine": 3.0})
    assert unattributed(spans) == {1: pytest.approx((10.0, 5.0))}
    assert layer_self_times(spans, by_name=True)["serve.b"] == pytest.approx(2.0)


def test_reconcile_flags_unattributed_time_beyond_tolerance():
    tight = [Span("bench.op", 1, 0.0, 1.0), Span("engine.run", 1, 0.0, 0.995, parent=0)]
    loose = [Span("bench.op", 2, 0.0, 1.0), Span("engine.run", 2, 0.1, 1.0, parent=0)]
    assert reconcile(tight) == []
    problems = reconcile(tight + [
        Span(s.name, s.op, s.start, s.end, s.parent + 2 if s.parent >= 0 else -1)
        for s in loose
    ])
    assert len(problems) == 1 and problems[0].startswith("op 2:")
    # Short operations get the absolute floor.
    short = [Span("bench.op", 3, 0.0, 1e-3), Span("stream.apply", 3, 0.0, 1e-3 - RECONCILE_FLOOR_S / 2, parent=0)]
    assert reconcile(short) == []


def test_dump_writes_one_json_line_per_span(tmp_path):
    tracer = Tracer(True)
    tracer.record("bench.op", 1, 0.0, 1.0)
    tracer.record("engine.run", 1, 0.0, 1.0, parent=0)
    path = tmp_path / "out" / "trace.jsonl"
    tracer.dump(path)
    assert len(path.read_text().splitlines()) == 2

"""``BENCHMARK.json`` and the benchmark's own registry agree."""

import json
from pathlib import Path

from perfbench import run
from perfbench.metrics import END_TO_END, PER_LAYER, Report

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_the_registry():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_workloads_match_the_entry_point():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_report_prints_every_metric_of_its_kind():
    traced = Report(trace=True)
    traced.set("store.parse_s", 0.5)
    metrics = traced.metrics()
    assert list(metrics) == [m.name for m in PER_LAYER]
    assert metrics["store.parse_s"] == {"value": 0.5, "unit": "s"}
    assert metrics["engine.run_s.pwc"]["value"] == 0.0
    plain = Report(trace=False)
    for metric in END_TO_END:
        plain.set(metric.name, 1.0)
    line = json.loads(plain.result_line(True, 3, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in END_TO_END]

"""Alternating set-up and timed phases, and what they report."""

from pathlib import Path

import pytest

from perfbench.common import Phases, RunArgs
from perfbench.metrics import Report
from perfbench.spans import Tracer


def test_each_phase_records_its_own_duration_and_peak():
    phases = Phases()
    for rep in range(3):
        assert phases.setup(lambda: rep * 2) == rep * 2
        with phases.timed():
            pass
    assert len(phases.setup_s) == len(phases.setup_peak_mb) == 3
    assert len(phases.timed_peak_mb) == 3
    assert all(seconds >= 0.0 for seconds in phases.setup_s)
    assert all(peak > 0.0 for peak in phases.setup_peak_mb + phases.timed_peak_mb)


def test_setup_s_is_imports_plus_the_median_set_up_and_peaks_are_medians():
    report = Report(trace=False)
    args = RunArgs(0, 1.0, Tracer(False), report, Path("."), import_s=0.5)
    args.phases = Phases([3.0, 1.0, 2.0], [10.0, 30.0, 20.0], [40.0, 50.0])
    args.report_phases()
    assert report.values["setup_s"] == pytest.approx(2.5)
    assert report.values["setup_peak_rss_mb"] == 20.0
    assert report.values["peak_rss_mb"] == 45.0

"""Pieces shared by the workloads: run arguments, set-up and timed
phases, operation accounting and answer checks."""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

import numpy as np

from . import memory
from .metrics import Report
from .spans import Tracer

#: Set-up runs at least this many times per run; ``setup_s`` reports the median.
SETUP_REPS = 3

T = TypeVar("T")


class InvalidRun(RuntimeError):
    """The run's measurements do not describe a steady state."""


@dataclass
class Phases:
    """Set-up and timed phases of one run, which may alternate.

    A workload whose timed work repeats can set up afresh before each
    repetition: its repetitions then spread over the whole run, and so
    do its set-ups.  Each phase starts from a collected heap with the
    peak-RSS mark reset, and records its own peak.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_peak_mb: list[float] = field(default_factory=list)
    timed_peak_mb: list[float] = field(default_factory=list)

    def setup(self, build: Callable[[], T]) -> T:
        """Return ``build()``, recording its duration and peak memory.

        The caller drops the previous set-up's state first, so each
        repetition builds everything from scratch, as a fresh process
        would.
        """
        gc.collect()
        memory.reset_peak_rss()
        started = time.perf_counter()
        result = build()
        self.setup_s.append(time.perf_counter() - started)
        self.setup_peak_mb.append(memory.peak_rss_mb())
        return result

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """Record the peak memory of the phase the ``with`` block runs."""
        gc.collect()
        memory.reset_peak_rss()
        yield
        self.timed_peak_mb.append(memory.peak_rss_mb())


@dataclass
class RunArgs:
    """What a workload receives from the command line and the harness."""

    seed: int
    seconds: float
    tracer: Tracer
    report: Report
    workdir: Path
    import_s: float
    phases: Phases = field(default_factory=Phases)

    def report_phases(self) -> None:
        """Record ``setup_s``, ``setup_peak_rss_mb`` and ``peak_rss_mb``."""
        phases = self.phases
        self.report.set("setup_s", self.import_s + statistics.median(phases.setup_s))
        # Medians too: glibc keeps a varying share of freed memory, so one
        # phase's peak can stand out.
        self.report.set("setup_peak_rss_mb", statistics.median(phases.setup_peak_mb))
        self.report.set("peak_rss_mb", statistics.median(phases.timed_peak_mb))


@dataclass
class Ops:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problem: Optional[str]) -> None:
        """Count one operation; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(problem)
                print(f"FAILED: {problem}", file=sys.stderr)


def uds_mismatch(got, expected, vertices: Optional[np.ndarray] = None) -> Optional[str]:
    """Why an undirected answer differs from the reference, or None.

    Compares the vertex set, the density and the iteration count bit for
    bit.  ``vertices`` overrides ``got.vertices`` when the answer's ids
    must first be mapped back to the reference's.
    """
    if vertices is None:
        vertices = got.vertices
    if not np.array_equal(np.sort(vertices), np.sort(expected.vertices)):
        return "vertex set differs from the reference"
    if got.density != expected.density:
        return f"density {got.density!r} != reference {expected.density!r}"
    if got.iterations != expected.iterations:
        return f"iterations {got.iterations} != reference {expected.iterations}"
    return None


def dds_mismatch(got, expected) -> Optional[str]:
    """Why a directed answer differs from the reference, or None."""
    if not np.array_equal(np.sort(got.s), np.sort(expected.s)):
        return "S set differs from the reference"
    if not np.array_equal(np.sort(got.t), np.sort(expected.t)):
        return "T set differs from the reference"
    if got.density != expected.density:
        return f"density {got.density!r} != reference {expected.density!r}"
    if got.iterations != expected.iterations:
        return f"iterations {got.iterations} != reference {expected.iterations}"
    return None

"""Summary statistics with the benchmark's sample-count rule.

A timing is reported as a median.  A tail percentile is reported only
where at least :data:`MIN_BEYOND` samples lie beyond it, so p99 needs
1000 samples and p90 needs 100.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Fewest samples for which percentile ``q`` (0 < q < 100) is reportable."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values`` under the sample rule.

    Nearest rank keeps the value a measured sample, and with
    ``len(values) >= min_samples(q)`` at least :data:`MIN_BEYOND`
    samples are at or above it.
    """
    needed = min_samples(q)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{q:g} needs at least {needed} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0 - 1e-9)
    return float(ordered[max(rank, 1) - 1])


def windowed_median(values: Sequence[float], windows: int) -> float:
    """Median over ``windows`` consecutive slices of each slice's median.

    ``values`` are in the order they were measured.  The host's speed
    drifts over seconds, so a slow stretch shifts every sample taken
    during it; the median of slice medians sets aside up to half the
    slices minus one, where a plain median would move with them.
    """
    if windows < 1 or len(values) < windows:
        raise TooFewSamples(f"{windows} windows need at least as many samples")
    edges = [round(i * len(values) / windows) for i in range(windows + 1)]
    return median([median(values[lo:hi]) for lo, hi in zip(edges, edges[1:])])


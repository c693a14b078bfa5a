"""The percentile and sample-count rule."""

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    TooFewSamples,
    median,
    min_samples,
    percentile,
    windowed_median,
)


def test_min_samples_leaves_ten_beyond():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    assert min_samples(50) == 20


@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_has_ten_samples_beyond_it(q):
    values = [float(v) for v in range(1, min_samples(q) + 1)]
    value = percentile(values, q)
    assert value in values
    assert sum(v > value for v in values) == MIN_BEYOND


@pytest.mark.parametrize("q", [90, 99])
def test_percentile_refuses_too_few_samples(q):
    with pytest.raises(TooFewSamples):
        percentile([1.0] * (min_samples(q) - 1), q)


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(100)]
    assert percentile(values[::-1], 90) == percentile(values, 90) == 89.0


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(TooFewSamples):
        median([])


def test_windowed_median_sets_aside_slow_windows():
    steady = [1.0, 1.1, 0.9, 1.0]
    slow = [2.0, 2.2, 1.8, 2.0]
    values = steady * 3 + slow * 2  # two slow stretches out of five
    assert median(values) == pytest.approx(1.1)
    assert windowed_median(values, 5) == 1.0
    assert windowed_median(steady, 1) == median(steady)
    with pytest.raises(TooFewSamples):
        windowed_median([1.0, 2.0], 3)

"""The tail-percentile rule: the highest percentile with at least ten
samples beyond it."""

import math

import pytest

from servebench.stats import percentile, samples_beyond, tail_percentile


@pytest.mark.parametrize(
    "count, pct, beyond",
    [(1000, 99.0, 10), (999, 99.0, 9), (100, 90.0, 10), (99, 90.0, 9),
     (200, 95.0, 10), (20, 50.0, 10), (10000, 99.0, 100)],
)
def test_samples_beyond(count, pct, beyond):
    assert samples_beyond(count, pct) == beyond


@pytest.mark.parametrize(
    "count, expected",
    [(100_000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected
    assert samples_beyond(count, expected) >= 10


def test_tail_percentile_none_when_too_few_samples():
    assert math.isnan(tail_percentile(19))


def test_workload_sample_counts_give_the_fixed_tails():
    # fleet/mixed serve >= 1000 small requests (p99); storm 100 ticks (p90)
    from servebench.specs import plan_for

    assert tail_percentile(100 * plan_for("fleet", 0, 1).rounds) == 99.0
    assert tail_percentile(100 * plan_for("mixed", 0, 1).rounds) == 99.0
    assert tail_percentile(plan_for("storm", 0, 1).ticks) == 90.0


def test_percentile_interpolates():
    samples = list(range(101))
    assert percentile(samples, 90.0) == 90.0
    assert percentile([1.0, 2.0], 50.0) == 1.5

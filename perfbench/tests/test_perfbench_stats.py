"""The benchmark's own arithmetic: tail selection and outcome accounting."""

import pytest

from stats import (
    RAW_EXCEPTION,
    error_frac,
    judge,
    median,
    nearest_rank,
    tail_percentile,
)


def test_nearest_rank_is_one_based_ceiling():
    ordered = list(range(1, 101))
    assert nearest_rank(ordered, 99) == (99, 99)
    assert nearest_rank(ordered, 50) == (50, 50)
    assert nearest_rank([7.0], 99) == (7.0, 1)


def test_tail_uses_p99_once_ten_samples_lie_beyond_it():
    tail = tail_percentile([float(i) for i in range(1000)])
    assert (tail.pct, tail.beyond, tail.samples) == (99, 10, 1000)
    assert tail.value == 989.0


def test_tail_steps_down_when_p99_has_too_few_samples_beyond():
    # 999 samples: p99 rank 990 leaves 9 beyond, p95 rank 950 leaves 49.
    tail = tail_percentile([float(i) for i in range(999)])
    assert (tail.pct, tail.beyond) == (95, 49)


def test_tail_falls_to_p90_between_100_and_200_samples():
    tail = tail_percentile([float(i) for i in range(140)])
    assert (tail.pct, tail.beyond, tail.value) == (90, 14, 125.0)
    assert tail_percentile([float(i) for i in range(199)]).pct == 90
    assert tail_percentile([float(i) for i in range(200)]).pct == 95


def test_tail_is_order_independent():
    values = [float((i * 37) % 101) for i in range(101)]
    assert tail_percentile(values) == tail_percentile(sorted(values))


def test_too_few_samples_for_any_rung_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 99)


def test_median_even_and_odd():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_expected_ic_timeout_is_a_success():
    assert judge("timeout", "timeout") is None
    assert judge("planning_failed", "planning_failed") is None


def test_raw_exception_is_a_failure_even_when_a_failure_was_expected():
    assert judge("timeout", RAW_EXCEPTION) is not None
    assert judge("ok", RAW_EXCEPTION) is not None


def test_row_mismatch_is_a_failure():
    assert "rows differ" in judge("ok", "ok", "row count: engine=1 reference=2")


def test_unexpected_status_is_a_failure_both_ways():
    assert judge("ok", "timeout") is not None
    # A query the paper says times out on IC must not silently succeed.
    assert judge("timeout", "ok") is not None


def test_error_frac_counts_wrong_outcomes_over_attempted():
    outcomes = [
        judge("ok", "ok"),
        judge("timeout", "timeout"),
        judge("ok", RAW_EXCEPTION),
        judge("ok", "ok", "engine-only rows (sample): [(1,)]"),
    ]
    failed = sum(why is not None for why in outcomes)
    assert error_frac(failed, len(outcomes)) == 0.5
    with pytest.raises(ValueError):
        error_frac(0, 0)

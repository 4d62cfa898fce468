import math

import numpy as np
import pytest

from stats import INF, fifo_queue_waits, percentile, pooled_percentile, quartiles, verdict


def test_percentile_agrees_with_the_sample_percentile_on_large_samples():
    values = np.random.default_rng(0).exponential(size=20001)
    for q in (0, 25, 50, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=5e-3)


def test_percentile_moves_smoothly_when_neighbours_swap():
    # Sorted costs with a gap at the median: the sample median jumps by
    # the gap when one value crosses it; the estimate moves far less.
    base = np.array([10.0] * 15 + [20.0] * 15)
    moved = base.copy()
    moved[14] = 21.0
    jump = np.percentile(moved, 50) - np.percentile(base, 50)
    assert abs(percentile(moved, 50) - percentile(base, 50)) < jump / 3


def test_failed_requests_rank_last_and_make_high_percentiles_infinite():
    values = [1.0] * 98 + [INF, INF]
    assert percentile(values, 50) == pytest.approx(1.0)
    assert math.isinf(percentile(values, 99))


def test_pooled_percentile_pools_requests_across_runs():
    runs = [[1.0, 2.0, 3.0], [10.0] * 7]
    pooled = pooled_percentile(runs, 50)
    assert pooled == percentile([1, 2, 3] + [10] * 7, 50)
    # Not the mean of per-run medians.
    assert pooled != pytest.approx(np.mean([percentile(r, 50) for r in runs]))


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_fifo_queue_waits_map_calls_to_requests_by_rows():
    due = [0.0, 1.0, 2.0, 3.0]
    rows = [1, 2, 1, 1]
    waits = fifo_queue_waits(due, rows, call_start=[5.0, 7.0], call_rows=[3, 1])
    assert waits[:3].tolist() == [5.0, 4.0, 5.0]
    assert math.isinf(waits[3])  # no call took it


def test_fifo_queue_waits_reject_a_call_that_splits_a_request():
    with pytest.raises(ValueError):
        fifo_queue_waits([0.0, 1.0], [2, 2], call_start=[3.0], call_rows=[3])


def test_verdict_rules():
    parent = [100, 101, 99, 100, 100]
    assert verdict(parent, [101, 100, 102, 101, 100], better="higher", bound=0.1) == "ok"
    assert verdict(parent, [80, 81, 79, 80, 80], better="higher", bound=0.1) == "regressed"
    assert verdict(parent, [80, 81, 79, 80, 80], better="lower", bound=0.1) == "ok"
    noisy = [60, 100, 140, 80, 120]
    assert verdict(parent, noisy, better="higher", bound=0.1) == "unresolved"
    # Every change run beats every parent run: resolved despite the spread.
    assert verdict(parent, [200, 300, 400, 250, 350], better="higher", bound=0.1) == "ok"


def test_gain_needs_ten_alternated_pairs_won_nine_in_ten():
    parent = [100.0 + (i % 3) for i in range(10)]
    change = [p + 10 for p in parent]
    pairs = list(zip(parent, change))
    assert verdict(parent, change, better="higher", bound=0.1, pairs=pairs) == "gain"
    # Sets measured apart in time are never a gain, however far apart.
    assert verdict(parent, change, better="higher", bound=0.1) == "ok"
    assert verdict(parent[:9], change[:9], better="higher", bound=0.1, pairs=pairs[:9]) == "ok"
    change[0] = change[1] = 90.0  # two lost pairs: 8 of 10
    pairs = list(zip(parent, change))
    assert verdict(parent, change, better="higher", bound=0.1, pairs=pairs) != "gain"

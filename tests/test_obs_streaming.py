"""StreamingHistogram: quantile-error bounds pinned against numpy.

The streaming histogram's contract is "nearest-rank quantiles within one
log bucket".  ``np.quantile(..., method="inverted_cdf")`` *is* the exact
nearest-rank quantile, so the property tests here compare against it on
hypothesis-generated adversarial distributions: the estimate must land
within the bucket's relative error (``growth**2``, covering midpoint
placement plus float boundary slack) of the exact sample.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.streaming import StreamingHistogram

#: Range where every observation lands in a regular log bucket (not the
#: underflow/overflow bins) for the default lo=1e-9, hi=1e9 geometry.
_values = st.floats(
    min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False
)
_value_lists = st.lists(_values, min_size=1, max_size=300)
_quantiles = st.floats(min_value=0.001, max_value=1.0)


def _fill(values, **kwargs):
    h = StreamingHistogram(**kwargs)
    for v in values:
        h.observe(v)
    return h


@given(values=_value_lists, q=_quantiles)
@settings(max_examples=200, deadline=None)
def test_quantile_tracks_numpy_nearest_rank(values, q):
    h = _fill(values)
    exact = float(np.quantile(np.array(values), q, method="inverted_cdf"))
    estimate = h.quantile(q)
    bound = h.growth**2
    assert exact / bound <= estimate <= exact * bound


#: Any float, including the underflow (<= lo) and overflow (> hi) bins,
#: zeros and negatives.
_any_values = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), max_size=200
)


@given(
    values=_any_values,
    qs=st.lists(st.floats(min_value=-0.5, max_value=1.5), max_size=8),
    lo=st.sampled_from([1e-9, 1e-3, 1.0]),
    hi=st.sampled_from([1e3, 1e9]),
)
@settings(max_examples=300, deadline=None)
def test_quantiles_track_numpy_nearest_rank_in_every_bin(values, qs, lo, hi):
    """One ``quantiles`` call answers every q as nearest rank would.

    q outside (0, 1) gives the exact min / max; a rank whose exact
    sample sits in the underflow (overflow) bin gives the exact min
    (max); any other lands within the bucket error of the exact sample.
    """
    h = _fill(values, lo=lo, hi=hi)
    got = h.quantiles(qs)
    assert len(got) == len(qs)
    if not values:
        assert got == [0.0] * len(qs)
        return
    data = np.array(values)
    bound = h.growth**2
    for q, estimate in zip(qs, got):
        if q <= 0.0 or q >= 1.0:
            assert estimate == (data.min() if q <= 0.0 else data.max())
            continue
        exact = float(np.quantile(data, q, method="inverted_cdf"))
        if exact <= lo:
            assert estimate == data.min()
        elif exact > hi:
            assert estimate == data.max()
        else:
            assert exact / bound <= estimate <= exact * bound


@given(values=_value_lists)
@settings(max_examples=100, deadline=None)
def test_exact_moments_and_extremes(values):
    h = _fill(values)
    assert h.count == len(values)
    assert h.total == pytest.approx(math.fsum(values), rel=1e-12)
    assert h.min == min(values)
    assert h.max == max(values)
    # Quantile estimates never escape the observed range.
    for q in (0.0, 0.25, 0.5, 0.999, 1.0):
        assert min(values) <= h.quantile(q) <= max(values)


@given(a=_value_lists, b=_value_lists)
@settings(max_examples=100, deadline=None)
def test_merge_equals_concatenated_observation(a, b):
    merged = _fill(a)
    merged.merge(_fill(b))
    combined = _fill(a + b)
    assert merged.count == combined.count
    assert merged.total == pytest.approx(combined.total, rel=1e-12)
    for q in (0.1, 0.5, 0.95, 0.99):
        assert merged.quantile(q) == combined.quantile(q)


def test_merge_rejects_mismatched_geometry():
    a = StreamingHistogram(growth=1.04)
    b = StreamingHistogram(growth=1.1)
    assert not a.compatible_with(b)
    with pytest.raises(ValueError):
        a.merge(b)


def test_underflow_and_overflow_clamp_to_observed_extremes():
    h = StreamingHistogram(lo=1e-3, hi=1e3)
    h.observe(1e-9)  # underflow bucket
    h.observe(5.0)
    h.observe(1e6)  # overflow bucket
    assert h.count == 3
    assert h.quantile(0.0) == 1e-9
    assert h.quantile(1.0) == 1e6
    s = h.summary()
    assert s["min"] == 1e-9 and s["max"] == 1e6


def test_empty_histogram_is_safe():
    h = StreamingHistogram()
    assert h.count == 0
    assert h.quantile(0.5) == 0.0
    assert h.summary()["count"] == 0
    assert h.cumulative_buckets() == []


def test_memory_is_bounded_and_quantiles_stay_accurate():
    # A million observations never grow the structure: counts live in a
    # fixed-size bucket array.
    h = StreamingHistogram()
    n_buckets = len(h._counts)
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=-5.0, sigma=2.0, size=100_000)
    for v in values:
        h.observe(float(v))
    assert len(h._counts) == n_buckets
    exact = float(np.quantile(values, 0.99, method="inverted_cdf"))
    assert h.quantile(0.99) == pytest.approx(exact, rel=0.1)


def test_cumulative_buckets_are_monotone_and_complete():
    h = _fill([0.001, 0.001, 0.5, 2.0, 1e4])
    buckets = h.cumulative_buckets()
    bounds = [b for b, _ in buckets]
    counts = [c for _, c in buckets]
    assert bounds == sorted(bounds)
    assert counts == sorted(counts)
    assert counts[-1] == h.count

"""``observe_many`` leaves exactly the state a loop of ``observe`` leaves.

The serving tier feeds each micro-batch's latencies and waits to its
histograms in one ``observe_many`` call.  That is only an optimisation
if nothing downstream can tell: bucket counts, underflow/overflow,
count, ``total`` (bit for bit — a pairwise ``np.sum`` would drift),
``min`` and ``max`` must all match the per-value loop, including for
values sitting exactly on a bucket bound, where ``np.log`` and
``math.log`` can round to different sides.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.streaming import StreamingHistogram

_GEOMETRIES = st.sampled_from([(1.04, 1e-9, 1e9), (1.04, 1e-3, 1e3), (1.5, 1.0, 1e3)])


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _values(draw, geometry):
    """Values biased toward the cases that break a naive vectorisation:
    bucket bounds and their float neighbours, lo and hi themselves,
    zeros of both signs, negatives, and values beyond hi."""
    growth, lo, hi = geometry
    n_buckets = len(StreamingHistogram(growth, lo, hi)._counts)
    log_growth = math.log(growth)

    def bound_neighbour():
        index = draw(st.integers(0, n_buckets))
        bound = lo * math.exp(index * log_growth)
        step = draw(st.integers(-2, 2))
        for _ in range(abs(step)):
            bound = math.nextafter(bound, math.inf if step > 0 else -math.inf)
        return bound

    value = st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=lo / 10, max_value=hi * 10, allow_nan=False),
        st.sampled_from([0.0, -0.0, -1.0, lo, hi, math.nextafter(hi, math.inf), 1e300]),
        st.builds(lambda _: bound_neighbour(), st.just(None)),
    )
    return draw(st.lists(value, max_size=120))


def _state(h: StreamingHistogram) -> dict:
    return {
        "counts": list(h._counts),
        "underflow": h.underflow,
        "overflow": h.overflow,
        "count": h.count,
        "total": "nan" if math.isnan(h.total) else _bits(h.total),
        "min": _bits(h.min),
        "max": _bits(h.max),
    }


def _loop(h, values):
    for v in values:
        h.observe(v)
    return h


@given(data=st.data(), geometry=_GEOMETRIES)
@settings(max_examples=300, deadline=None)
def test_observe_many_equals_observe_loop(data, geometry):
    values = data.draw(_values(geometry))
    chunk = data.draw(st.integers(1, 130))
    start = data.draw(st.floats(-5.0, 5.0))
    loop = StreamingHistogram(*geometry)
    many = StreamingHistogram(*geometry)
    # A running total that is not zero makes the summation order visible.
    loop.observe(start)
    many.observe(start)
    _loop(loop, values)
    for i in range(0, len(values), chunk):
        many.observe_many(np.asarray(values[i : i + chunk]))
    assert _state(many) == _state(loop)


@given(data=st.data(), geometry=_GEOMETRIES)
@settings(max_examples=100, deadline=None)
def test_merge_after_either_path(data, geometry):
    left = data.draw(_values(geometry))
    right = data.draw(_values(geometry))
    via_loop = _loop(StreamingHistogram(*geometry), left)
    via_loop.merge(_loop(StreamingHistogram(*geometry), right))
    via_many = StreamingHistogram(*geometry)
    via_many.observe_many(left)
    other = StreamingHistogram(*geometry)
    other.observe_many(right)
    via_many.merge(other)
    assert _state(via_many) == _state(via_loop)
    assert via_many.quantiles((0.5, 0.99)) == via_loop.quantiles((0.5, 0.99))


@given(values=st.lists(st.floats(min_value=-1e12, max_value=1e12), max_size=80))
@settings(max_examples=150, deadline=None)
def test_histogram_wrapper_matches_loop(values):
    loop = Histogram("h")
    many = Histogram("h")
    for v in values:
        loop.observe(v)
    many.observe_many(values)
    assert many.summary() == loop.summary()
    assert many.cumulative_buckets() == loop.cumulative_buckets()
    # Merging either into a third histogram gives the same result.
    a = Histogram("h").merge(many)
    b = Histogram("h").merge(loop)
    assert a.summary() == b.summary()


def test_empty_input_changes_nothing():
    h = StreamingHistogram()
    h.observe(2.5)
    before = _state(h)
    h.observe_many([])
    h.observe_many(np.empty(0))
    assert _state(h) == before


def test_nan_rejected_before_recording():
    h = StreamingHistogram()
    values = np.linspace(1e-6, 1e-3, 40)
    values[17] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        h.observe_many(values)
    assert h.count == 0 and h.total == 0.0
    # A short batch takes the scalar loop: the NaN after two good values
    # must still leave nothing recorded.
    with pytest.raises(ValueError, match="NaN"):
        h.observe_many([1.0, 2.0, float("nan")])
    assert h.count == 0 and h.total == 0.0
    with pytest.raises(ValueError, match="NaN"):
        h.observe(float("nan"))
    assert h.count == 0 and h.total == 0.0


def test_bucket_bounds_where_the_two_logs_disagree():
    """Every bucket bound and its neighbours, at once: some of them round
    to different buckets under ``np.log`` and ``math.log``."""
    h = StreamingHistogram()
    bounds = h.lo * np.exp((np.arange(len(h._counts)) + 1) * math.log(h.growth))
    values = np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf)])
    many = StreamingHistogram()
    many.observe_many(values)
    assert _state(many) == _state(_loop(StreamingHistogram(), values.tolist()))


def test_copy_is_independent():
    h = Histogram("h")
    h.observe_many(np.linspace(1e-4, 1e-2, 50))
    twin = h.copy()
    h.observe_many(np.linspace(1.0, 2.0, 50))
    assert twin.count == 50 and h.count == 100
    assert twin.summary() != h.summary()

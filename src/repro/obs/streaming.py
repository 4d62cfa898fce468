"""Bounded log-bucketed streaming histograms.

A histogram that keeps every sample gives exact quantiles, but O(n)
memory and an O(n log n) sort per ``quantile()`` call.  That is fine for a
benchmark of a few thousand batches and fatal for a serving tier
observing millions of request latencies.  :class:`StreamingHistogram` is
the serving-grade alternative, and the store behind every
:class:`~repro.obs.metrics.Histogram`:

* **Fixed memory.**  Values land in geometrically spaced buckets
  (``growth`` ratio between consecutive bounds) spanning ``[lo, hi]``,
  plus underflow/overflow buckets — a flat integer array whose size is
  set at construction and never grows.
* **Bounded quantile error.**  A quantile is answered by walking the
  cumulative counts to the bucket holding the nearest-rank sample and
  returning the bucket's geometric midpoint, so the result is within one
  half bucket of the true order statistic: a relative error of at most
  ``sqrt(growth) - 1`` (plus one bucket of float-boundary slack).  The
  default ``growth=1.04`` keeps p50/p95/p99/p999 within a few percent.
* **Mergeable.**  Two histograms with identical bucket geometry merge by
  adding their count arrays — engine-pool replicas can each record
  locally and fold into one distribution for the run report.
* **Exportable.**  ``cumulative_buckets()`` yields Prometheus-style
  ``(upper_bound, cumulative_count)`` pairs for the non-empty buckets,
  which is exactly the ``_bucket{le="..."}`` series shape.

Values at or below ``lo`` (zeros, negatives) fall into the underflow
bucket and quantiles landing there report the exact observed minimum;
values above ``hi`` symmetrically report the exact maximum.  ``min`` /
``max`` / ``sum`` / ``count`` are always tracked exactly.

Observations arrive one at a time (:meth:`StreamingHistogram.observe`) or
a batch at a time (:meth:`StreamingHistogram.observe_many`: one numpy
pass for the bucket indices and the sum).  Both leave bit-identical state:
they share one bucket-index rule, and the batch path sums left to right
like the loop.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StreamingHistogram"]

#: How close (in buckets) a vectorised log may land to a bucket bound
#: before the scalar rule re-derives the index.  ``np.log`` and
#: ``math.log`` differ by at most a few ulps, i.e. ~1e-13 buckets over
#: the default 1,057-bucket range.
_BOUND_SLACK = 1e-9
#: Batches up to this size cost less as a loop of ``observe`` than the
#: fixed cost (about fifteen numpy calls) of the vectorised pass.
_LOOP_UP_TO = 12


class StreamingHistogram:
    """A fixed-memory distribution sketch over positive values.

    Args:
        growth: ratio between consecutive bucket bounds (>1).  Smaller
            is more accurate and more buckets; 1.04 ≈ 2% quantile error
            in ~1200 buckets for the default range.
        lo: lower edge of the bucketed range; values ``<= lo`` (including
            zeros and negatives) count in the underflow bucket.
        hi: upper edge of the bucketed range; values ``> hi`` count in
            the overflow bucket.
    """

    __slots__ = (
        "growth",
        "lo",
        "hi",
        "_log_growth",
        "_counts",
        "underflow",
        "overflow",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(self, growth: float = 1.04, lo: float = 1e-9, hi: float = 1e9) -> None:
        if not growth > 1.0:
            raise ValueError("growth must be > 1")
        if not 0.0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        self.growth = float(growth)
        self.lo = float(lo)
        self.hi = float(hi)
        self._log_growth = math.log(self.growth)
        n = int(math.ceil(math.log(self.hi / self.lo) / self._log_growth))
        self._counts = np.zeros(n, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        """Bucket of an in-range value (``lo < value <= hi``).

        The one index rule: :meth:`observe` applies it to every value,
        :meth:`observe_many` to every value its vectorised log puts
        within rounding distance of a bucket bound.
        """
        index = int(math.log(value / self.lo) / self._log_growth)
        return min(index, len(self._counts) - 1)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value``; ``count > 1`` records it that many times.

        The weighted form lets callers fold a batch of identical
        observations (e.g. the per-request kernel time of one dispatched
        micro-batch) into one bucket update instead of N.  NaN is
        rejected before anything is recorded.
        """
        value = float(value)
        if value != value:
            raise ValueError("cannot observe NaN")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.lo:
            self.underflow += count
        elif value > self.hi:
            self.overflow += count
        else:
            self._counts[self._index(value)] += count

    def observe_many(self, values) -> None:
        """Record every value of ``values`` in one vectorised pass.

        Leaves exactly the state ``for v in values: observe(v)`` would:
        the same buckets (one index rule), ``total`` summed left to right
        (``np.cumsum`` is sequential where ``np.sum`` is pairwise), and
        ``min``/``max`` the first of equal extremes.  A handful of values
        is cheaper through that loop itself, so it takes it.  Otherwise
        NaN is rejected before anything is recorded.
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        n = v.size
        if n <= _LOOP_UP_TO:
            for value in v.tolist():
                self.observe(value)
            return
        low = float(v[v.argmin()])
        high = float(v[v.argmax()])
        if low != low or high != high:  # argmin/argmax stop at a NaN
            raise ValueError("cannot observe NaN")
        self.count += n
        with np.errstate(over="ignore", invalid="ignore"):  # as float += would
            self.total = float(np.cumsum(np.concatenate((np.array([self.total]), v)))[-1])
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        lo, hi = self.lo, self.hi
        inside = v
        if low <= lo or high > hi:
            under = v <= lo
            over = v > hi
            self.underflow += int(np.count_nonzero(under))
            self.overflow += int(np.count_nonzero(over))
            inside = v[~(under | over)]
            if not inside.size:
                return
        exact = np.log(inside / lo)
        exact /= self._log_growth
        index = exact.astype(np.int64)
        exact -= index  # the fraction past the bucket's lower bound
        if exact[exact.argmin()] < _BOUND_SLACK or exact[exact.argmax()] > 1.0 - _BOUND_SLACK:
            near = (exact < _BOUND_SLACK) | (exact > 1.0 - _BOUND_SLACK)
            for j in np.flatnonzero(near).tolist():
                index[j] = self._index(float(inside[j]))
        np.minimum(index, len(self._counts) - 1, out=index)
        np.add.at(self._counts, index, 1)

    def copy(self) -> StreamingHistogram:
        """An independent twin with the same observations."""
        twin = StreamingHistogram.__new__(StreamingHistogram)
        for slot in self.__slots__:
            setattr(twin, slot, getattr(self, slot))
        twin._counts = self._counts.copy()
        return twin

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bound(self, index: int) -> float:
        """Upper bound of bucket ``index`` (0-based)."""
        return self.lo * math.exp((index + 1) * self._log_growth)

    def quantile(self, q: float) -> float:
        """Nearest-rank q-quantile estimate; 0 when empty.

        The answer is the geometric midpoint of the bucket containing
        the ``ceil(q * count)``-th smallest observation, clamped into
        the exact observed ``[min, max]``.
        """
        return self.quantiles((q,))[0]

    def quantiles(self, qs) -> list[float]:
        """:meth:`quantile` for each of ``qs``, from one cumulative pass.

        Builds the cumulative counts once, then bisects for each rank:
        the first bucket whose cumulative count reaches the rank holds
        the rank's observation.
        """
        if self.count == 0:
            return [0.0] * len(qs)
        cumulative = np.cumsum(self._counts)
        cumulative += self.underflow
        out = []
        for q in qs:
            if q <= 0.0 or q >= 1.0:
                out.append(self.min if q <= 0.0 else self.max)
                continue
            rank = max(1, math.ceil(q * self.count))
            # The first bucket whose cumulative count reaches the rank
            # (-1: the underflow bucket already does).
            index = -1 if rank <= self.underflow else int(cumulative.searchsorted(rank))
            if index < 0:
                # Everything down here is <= lo; min is the best estimate.
                out.append(self.min)
            elif index == len(self._counts):
                out.append(self.max)  # rank fell in the overflow bucket
            else:
                mid = self.lo * math.exp((index + 0.5) * self._log_growth)
                out.append(min(self.max, max(self.min, mid)))
        return out

    def summary(self) -> dict:
        """JSON-ready summary matching :meth:`Histogram.summary`."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        p50, p95, p99, p999 = self.quantiles((0.5, 0.95, 0.99, 0.999))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound, cumulative_count)`` pairs.

        Prometheus-histogram shaped: counts are cumulative from below,
        and the overflow bucket is implicit in the caller's ``+Inf``
        series (whose value is :attr:`count`).
        """
        out: list[tuple[float, int]] = []
        if self.underflow:
            out.append((self.lo, self.underflow))
        filled = np.flatnonzero(self._counts)
        cumulative = self.underflow + np.cumsum(self._counts[filled])
        for index, total in zip(filled.tolist(), cumulative.tolist()):
            out.append((self._bound(index), total))
        return out

    # ------------------------------------------------------------------
    # Merging (engine-pool replicas)
    # ------------------------------------------------------------------
    def compatible_with(self, other: StreamingHistogram) -> bool:
        return (
            isinstance(other, StreamingHistogram)
            and other.growth == self.growth
            and other.lo == self.lo
            and other.hi == self.hi
        )

    def merge(self, other: StreamingHistogram) -> StreamingHistogram:
        """Fold ``other``'s observations into this histogram (in place)."""
        if not self.compatible_with(other):
            raise ValueError("cannot merge histograms with different bucket geometry")
        self._counts += other._counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

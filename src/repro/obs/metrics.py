"""Metrics: counters, gauges, histograms, and a registry.

A deliberately small instrument set (the Prometheus trinity) shared by
the engines, the serving tier and benchmarks.  The registry adopts the
simulator's existing accounting — :class:`~repro.gpusim.counters.TrafficCounters`
(the NVProf stand-in) folds in via :meth:`MetricsRegistry.record_traffic`
— so the paper's section 7.3 quantities become ordinary metrics instead
of ad-hoc dataclass fields.

Metric names are dotted (``traffic.forest_global.fetched_bytes``); the
Prometheus exporter sanitises them.  Histograms are **streaming** by
default — bounded log-bucketed sketches
(:class:`~repro.obs.streaming.StreamingHistogram`) with fixed memory and
a few-percent quantile error, which is what lets the serving tier keep
them on the request hot path indefinitely.  Pass ``raw=True`` for the
old keep-every-observation behaviour (exact quantiles; benchmarks and
tests that assert exact values).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.obs.streaming import StreamingHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Traffic classes mirrored from ``TrafficCounters`` (duck-typed to keep
#: this module import-cycle-free).
_TRAFFIC_CLASSES = (
    "forest_global",
    "sample_global",
    "output_global",
    "shared_read",
    "shared_write",
)
#: The per-class quantities :meth:`MetricsRegistry.record_traffic` folds.
_TRAFFIC_FIELDS = ("requested_bytes", "fetched_bytes", "transactions", "accesses")


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution: streaming log-bucketed by default, raw on request.

    Streaming mode (the default) delegates to a
    :class:`StreamingHistogram` — fixed memory, mergeable, p50/p95/p99/
    p999 without storing samples.  ``raw=True`` keeps every observation
    in a sorted list instead, giving exact nearest-rank quantiles in
    O(log n) per insert (no re-sorting on read) at the cost of unbounded
    memory — the escape hatch for tests and small offline runs.
    """

    __slots__ = ("name", "help", "raw", "_stream", "_sorted")

    def __init__(self, name: str, help: str = "", raw: bool = False) -> None:
        self.name = name
        self.help = help
        self.raw = bool(raw)
        self._stream: StreamingHistogram | None = None if self.raw else StreamingHistogram()
        self._sorted: list[float] = []

    def observe(self, value: float, count: int = 1) -> None:
        if self._stream is not None:
            self._stream.observe(value, count)
        else:
            value = float(value)
            for _ in range(count):
                insort(self._sorted, value)

    def observe_many(self, values) -> None:
        """Record every value of ``values``: the same state as a loop of
        :meth:`observe`, from one vectorised pass in streaming mode."""
        if self._stream is not None:
            self._stream.observe_many(values)
        else:
            for value in np.asarray(values, dtype=np.float64).ravel().tolist():
                insort(self._sorted, value)

    def copy(self) -> Histogram:
        """An independent twin with the same observations."""
        twin = Histogram.__new__(Histogram)
        twin.name, twin.help, twin.raw = self.name, self.help, self.raw
        twin._stream = None if self._stream is None else self._stream.copy()
        twin._sorted = list(self._sorted)
        return twin

    @property
    def observations(self) -> list[float]:
        """The raw samples (ascending).  Raw mode only."""
        if self._stream is not None:
            raise TypeError(
                f"histogram {self.name!r} is streaming and keeps no raw "
                "observations; construct it with raw=True"
            )
        return self._sorted

    @property
    def count(self) -> int:
        if self._stream is not None:
            return self._stream.count
        return len(self._sorted)

    @property
    def total(self) -> float:
        if self._stream is not None:
            return self._stream.total
        return math.fsum(self._sorted)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        if self._stream is not None:
            return self._stream.min if self._stream.count else 0.0
        return self._sorted[0] if self._sorted else 0.0

    @property
    def max(self) -> float:
        if self._stream is not None:
            return self._stream.max if self._stream.count else 0.0
        return self._sorted[-1] if self._sorted else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank q-quantile (exact in raw mode); 0 when empty."""
        return self.quantiles((q,))[0]

    def quantiles(self, qs) -> list[float]:
        """:meth:`quantile` for each of ``qs``; one pass in streaming mode."""
        if self._stream is not None:
            return self._stream.quantiles(qs)
        n = len(self._sorted)
        if not n:
            return [0.0] * len(qs)
        return [self._sorted[min(n - 1, max(0, math.ceil(q * n) - 1))] for q in qs]

    def summary(self) -> dict:
        if self._stream is not None:
            return self._stream.summary()
        if not self._sorted:
            return {"count": 0, "sum": 0.0}
        p50, p95, p99, p999 = self.quantiles((0.5, 0.95, 0.99, 0.999))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self._sorted[0],
            "max": self._sorted[-1],
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style non-empty ``(le_bound, cumulative_count)``.

        Raw mode replays its samples through a scratch streaming
        histogram so both modes export identical bucket geometry.
        """
        stream = self._stream
        if stream is None:
            stream = StreamingHistogram()
            for v in self._sorted:
                stream.observe(v)
        return stream.cumulative_buckets()

    def merge(self, other: Histogram) -> Histogram:
        """Fold ``other`` into this histogram (replica aggregation)."""
        if self._stream is not None and other._stream is not None:
            self._stream.merge(other._stream)
        elif self._stream is None and other._stream is None:
            for v in other._sorted:
                insort(self._sorted, v)
        else:
            raise TypeError(
                f"cannot merge raw and streaming histograms ({self.name!r})"
            )
        return self


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    Names are unique across types: asking for ``counter("x")`` after
    ``gauge("x")`` is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # (prefix, traffic class) -> its four counters, resolved once.
        self._traffic: dict[tuple[str, str], tuple[Counter, ...]] = {}

    def _get(self, name: str, kind, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The metric registered as ``name``, without creating it."""
        return self._metrics.get(name)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "", raw: bool = False) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help=help, raw=raw)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def record_traffic(self, counters, prefix: str = "traffic") -> None:
        """Fold one kernel's :class:`TrafficCounters` into the registry.

        Accumulates requested/fetched bytes, transactions and accesses
        per traffic class, and tracks the per-kernel load efficiency of
        the forest stream (the paper's coalescing-quality metric) as a
        histogram.
        """
        for cls in _TRAFFIC_CLASSES:
            mc = getattr(counters, cls, None)
            if mc is None:
                continue
            handles = self._traffic.get((prefix, cls))
            if handles is None:
                handles = tuple(
                    self.counter(f"{prefix}.{cls}.{field}") for field in _TRAFFIC_FIELDS
                )
                self._traffic[(prefix, cls)] = handles
            for counter, field in zip(handles, _TRAFFIC_FIELDS):
                amount = getattr(mc, field)
                if amount:
                    counter.inc(amount)
        forest = getattr(counters, "forest_global", None)
        if forest is not None and forest.fetched_bytes:
            self.histogram(
                f"{prefix}.forest_global.load_efficiency",
                help="requested / fetched bytes per kernel (coalescing quality)",
            ).observe(forest.load_efficiency)

    def merge(self, other: MetricsRegistry) -> MetricsRegistry:
        """Fold another registry in: counters add, gauges keep the other's
        latest value, histograms merge bucket-wise (replica fan-in)."""
        for metric in other:
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.help).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, metric.help).set(metric.value)
            else:
                mine = self.histogram(metric.name, metric.help, raw=metric.raw)
                mine.merge(metric)
        return self

    def snapshot(self) -> dict:
        """A plain-dict view of every metric (JSON-ready)."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                out["counters"][metric.name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][metric.name] = metric.value
            else:
                out["histograms"][metric.name] = metric.summary()
        return out

    def reset(self) -> None:
        self._metrics.clear()
        self._traffic.clear()

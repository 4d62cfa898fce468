"""Metrics: counters, gauges, histograms, and a registry.

A deliberately small instrument set (the Prometheus trinity) shared by
the engines, the serving tier and benchmarks.  The registry adopts the
simulator's existing accounting — :class:`~repro.gpusim.counters.TrafficCounters`
(the NVProf stand-in) folds in via :meth:`MetricsRegistry.record_traffic`
— so the paper's section 7.3 quantities become ordinary metrics instead
of ad-hoc dataclass fields.

Metric names are dotted (``traffic.forest_global.fetched_bytes``); the
Prometheus exporter sanitises them.  Histograms are **streaming** —
bounded log-bucketed sketches
(:class:`~repro.obs.streaming.StreamingHistogram`) with fixed memory and
a few-percent quantile error, which is what lets the serving tier keep
them on the request hot path indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """A named distribution backed by a :class:`StreamingHistogram` —
    fixed memory, mergeable, p50/p95/p99/p999 without storing samples."""

    __slots__ = ("name", "help", "_stream")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._stream = StreamingHistogram()

    def observe(self, value: float, count: int = 1) -> None:
        self._stream.observe(value, count)

    def observe_many(self, values) -> None:
        """Record every value of ``values``: the same state as a loop of
        :meth:`observe`, from one vectorised pass."""
        self._stream.observe_many(values)

    def copy(self) -> Histogram:
        """An independent twin with the same observations."""
        twin = Histogram.__new__(Histogram)
        twin.name, twin.help, twin._stream = self.name, self.help, self._stream.copy()
        return twin

    @property
    def count(self) -> int:
        return self._stream.count

    @property
    def total(self) -> float:
        return self._stream.total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._stream.min if self._stream.count else 0.0

    @property
    def max(self) -> float:
        return self._stream.max if self._stream.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank q-quantile (within the bucket error); 0 when empty."""
        return self.quantiles((q,))[0]

    def quantiles(self, qs) -> list[float]:
        """:meth:`quantile` for each of ``qs``, in one pass."""
        return self._stream.quantiles(qs)

    def summary(self) -> dict:
        return self._stream.summary()

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style non-empty ``(le_bound, cumulative_count)``."""
        return self._stream.cumulative_buckets()

    def merge(self, other: Histogram) -> Histogram:
        """Fold ``other`` into this histogram (replica aggregation)."""
        self._stream.merge(other._stream)
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

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help)

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
                self.histogram(metric.name, metric.help).merge(metric)
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

"""Metrics registry: counters, gauges, histograms, traffic adoption."""

from __future__ import annotations

import pytest

from repro.gpusim.counters import TrafficCounters
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    c = Counter("n")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_keeps_last_value():
    g = Gauge("t")
    g.set(1.0)
    g.set(0.25)
    assert g.value == 0.25


def test_streaming_histogram_is_default_and_approximate():
    h = Histogram("lat")
    for v in [1.0, 2.0, 3.0, 4.0]:
        h.observe(v)
    assert h.count == 4
    assert h.total == 10.0
    assert h.min == 1.0 and h.max == 4.0
    # log-bucketed: quantiles land within the bucket's relative error
    assert h.quantile(0.5) == pytest.approx(2.0, rel=0.05)
    assert h.quantile(1.0) == pytest.approx(4.0, rel=0.05)


def test_histogram_merge():
    a = Histogram("lat")
    b = Histogram("lat")
    for v in (1.0, 2.0):
        a.observe(v)
    b.observe(3.0)
    a.merge(b)
    assert a.count == 3 and a.max == 3.0


def test_empty_histogram_summary_is_safe():
    h = Histogram("empty")
    assert h.count == 0
    assert h.mean == 0.0
    assert h.summary()["count"] == 0


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c1 = reg.counter("batches")
    c2 = reg.counter("batches")
    assert c1 is c2
    with pytest.raises(TypeError):
        reg.gauge("batches")
    names = {m.name for m in reg}
    assert names == {"batches"}


def test_record_traffic_adopts_gpusim_counters():
    tc = TrafficCounters()
    tc.forest_global.add(requested=1024, fetched=2048, transactions=16, accesses=32)
    tc.shared_read.add(requested=256, fetched=256, transactions=8, accesses=8)
    reg = MetricsRegistry()
    reg.record_traffic(tc)
    reg.record_traffic(tc)  # counters accumulate across kernels
    snap = reg.snapshot()
    assert snap["counters"]["traffic.forest_global.fetched_bytes"] == 4096.0
    assert snap["counters"]["traffic.forest_global.transactions"] == 32.0
    assert snap["counters"]["traffic.shared_read.requested_bytes"] == 512.0
    # coalescing quality: one load-efficiency observation per kernel
    eff = snap["histograms"]["traffic.forest_global.load_efficiency"]
    assert eff["count"] == 2
    assert eff["mean"] == 0.5  # 1024 requested / 2048 fetched


def test_snapshot_and_reset():
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(7)
    reg.histogram("c").observe(1.5)
    snap = reg.snapshot()
    assert snap["counters"]["a"] == 2.0
    assert snap["gauges"]["b"] == 7.0
    assert snap["histograms"]["c"]["count"] == 1
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

"""User-population workload model: arrival counts pinned to the analytic
intensity integral, Zipf skew, session structure, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import UserPopulationWorkload

X_POOL = np.random.default_rng(0).standard_normal((64, 8))


def _workload(**kwargs) -> UserPopulationWorkload:
    defaults = dict(X_pool=X_POOL, qps=2000.0, duration=0.5, n_users=200)
    defaults.update(kwargs)
    return UserPopulationWorkload(**defaults)


class TestIntensity:
    def test_expected_sessions_matches_numeric_integral(self):
        wl = _workload(diurnal_amplitude=0.7, flash_factor=5.0, flash_fraction=0.3)
        horizon = wl.duration
        t = np.linspace(0.0, horizon, 20001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        numeric = trapezoid([wl.intensity(x, horizon) for x in t], t)
        assert wl.expected_sessions(horizon) == pytest.approx(numeric, rel=1e-4)

    def test_flat_model_reduces_to_poisson_rate(self):
        wl = _workload(diurnal_amplitude=0.0, flash_factor=1.0)
        # no diurnal swing, no flash crowd: request rate is exactly qps
        assert wl.expected_arrivals(wl.duration) == pytest.approx(
            wl.qps * wl.duration
        )

    @settings(max_examples=20, deadline=None)
    @given(
        qps=st.floats(500.0, 3000.0),
        amplitude=st.floats(0.0, 0.9),
        flash=st.floats(1.0, 8.0),
        mean=st.floats(1.0, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_realized_arrivals_track_the_intensity_integral(
        self, qps, amplitude, flash, mean, seed
    ):
        duration = 0.4
        wl = _workload(
            qps=qps,
            duration=duration,
            diurnal_amplitude=amplitude,
            flash_factor=flash,
            session_requests_mean=mean,
            session_gap_mean=1e-4,
        )
        requests = wl.arrivals(np.random.default_rng(seed), duration)
        expected = wl.expected_arrivals(duration)
        # compound Poisson: sessions ~ Poisson(lam), each geometric with
        # mean m, so Var[N] = lam * E[size^2] with E[size^2] = (2-p)/p^2
        lam = wl.expected_sessions(duration)
        p = 1.0 / mean
        sigma = math.sqrt(lam * (2.0 - p) / p**2)
        assert abs(len(requests) - expected) <= 5.0 * sigma + 10.0


class TestArrivalStructure:
    def test_deterministic_given_rng(self):
        wl = _workload()
        a = wl.arrivals(np.random.default_rng(3), wl.duration)
        b = wl.arrivals(np.random.default_rng(3), wl.duration)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        assert [r.user for r in a] == [r.user for r in b]

    def test_sorted_with_monotone_ids_and_tagged_users(self):
        wl = _workload()
        requests = wl.arrivals(np.random.default_rng(1), wl.duration)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert all(0 <= r.user < wl.n_users for r in requests)
        assert all(0.0 <= t < wl.duration for t in times)

    def test_zipf_concentrates_traffic_on_heavy_users(self):
        wl = _workload(zipf_exponent=1.2, n_users=500, duration=1.0)
        requests = wl.arrivals(np.random.default_rng(5), wl.duration)
        counts = np.bincount([r.user for r in requests], minlength=wl.n_users)
        top_share = np.sort(counts)[::-1][:5].sum() / len(requests)
        # 1% of users carry far more than their uniform share (1%)
        assert top_share > 0.05

    def test_uniform_population_is_flat(self):
        wl = _workload(zipf_exponent=0.0, n_users=50, duration=1.0)
        requests = wl.arrivals(np.random.default_rng(5), wl.duration)
        counts = np.bincount([r.user for r in requests], minlength=wl.n_users)
        assert counts.max() < 5 * max(1, counts.mean())

    def test_flash_crowd_raises_arrivals_in_window(self):
        wl = _workload(
            flash_factor=8.0, flash_start=0.5, flash_fraction=0.2,
            diurnal_amplitude=0.0, duration=1.0, qps=4000.0,
        )
        requests = wl.arrivals(np.random.default_rng(2), wl.duration)
        times = np.array([r.arrival_time for r in requests])
        window = (times >= 0.5) & (times < 0.7)
        before = (times >= 0.2) & (times < 0.4)
        assert window.sum() > 3 * before.sum()


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _workload(n_users=0)
        with pytest.raises(ValueError):
            _workload(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            _workload(flash_factor=0.0)
        with pytest.raises(ValueError):
            _workload(session_requests_mean=0.5)

"""A wrong or missing response is an error and an infinite latency."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from layers import Tracer
from repro.serving.request import InferenceResponse

POOL = np.arange(40, dtype=np.float32).reshape(20, 2)
REFERENCE = POOL[:, 0].astype(np.float64)


class FakeServer:
    """Answers every due request at once, except as told."""

    config = SimpleNamespace(max_wait=0.001)

    def __init__(self, drop=(), corrupt=()):
        self.drop, self.corrupt = set(drop), set(corrupt)

    def run(self, requests=(), until=None):
        responses = []
        for r in requests:
            if r.request_id in self.drop:
                continue
            preds = r.X[:, 0].astype(np.float64)
            if r.request_id in self.corrupt:
                preds = preds + 1.0
            responses.append(InferenceResponse(r.request_id, preds, r.arrival_time, until or 0.0))
        return SimpleNamespace(responses=responses)


def _serve(server, n=10):
    draws = [("predict", np.array([j])) for j in range(n)]
    tally = workloads.Tally()
    latency, _ = workloads.open_loop(
        server, POOL, draws, np.linspace(0.0, 0.01, n), 0, workloads.clock(),
        Tracer(False), tally, workloads.Checker(REFERENCE),
    )
    return latency, tally


@pytest.fixture(autouse=True)
def short_drain(monkeypatch):
    monkeypatch.setattr(workloads, "DRAIN_S", 0.05)


def test_clean_run_has_no_errors():
    latency, tally = _serve(FakeServer())
    assert tally.attempted == 10 and tally.failed == 0 and tally.error_rate == 0
    assert np.isfinite(latency).all()


def test_corrupted_prediction_counts_as_error_and_infinite_latency():
    latency, tally = _serve(FakeServer(corrupt={3}))
    assert tally.failed == 1 and tally.error_rate > 0
    assert math.isinf(latency[3]) and np.isfinite(np.delete(latency, 3)).all()


def test_dropped_response_counts_as_error_and_infinite_latency():
    latency, tally = _serve(FakeServer(drop={7}))
    assert tally.failed == 1 and tally.error_rate > 0
    assert math.isinf(latency[7])

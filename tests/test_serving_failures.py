"""Serving input validation and failure isolation.

A malformed request is refused at ``submit`` with a structured
``invalid_request`` response; an engine that raises fails only its own
micro-batch, as ``engine_error`` responses.  Either way every submitted
request gets exactly one response and its trace still tiles
``[arrival, completion]``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ENGINE_ERROR,
    REJECTED_INVALID,
    InferenceRequest,
    SchedulerConfig,
    TahoeServer,
)

#: A first-column value no real sample has; the faulty engine below
#: raises on any batch that contains it.
POISON = -7.25e6


@pytest.fixture(scope="module")
def reference(small_forest, test_X):
    return small_forest.predict(test_X)


def make_server(forest, spec, **overrides):
    defaults = dict(
        n_engines=2, max_wait=1e-3, max_batch=64, target_batch=64, backend="native"
    )
    defaults.update(overrides)
    return TahoeServer(forest, spec, scheduler=SchedulerConfig(**defaults))


def poison_engines(server):
    """Make every replica raise on batches holding a poisoned row."""
    for engine in server.engines:
        predict = engine.predict

        def faulty(X, *args, _predict=predict, **kwargs):
            if np.any(X[:, 0] == POISON):
                raise RuntimeError("injected engine fault")
            return _predict(X, *args, **kwargs)

        engine.predict = faulty


def assert_tiles(response):
    spans = response.trace.spans
    assert spans[0].start == response.arrival_time
    assert spans[-1].end == response.completion_time
    for before, after in zip(spans, spans[1:]):
        assert before.end == after.start


class TestInvalidRequests:
    def test_wrong_width_between_valid_neighbours(
        self, small_forest, p100, test_X, reference
    ):
        width = small_forest.n_attributes
        requests = [
            InferenceRequest(0, test_X[0], 0.0),
            InferenceRequest(1, np.zeros(width - 6, np.float32), 1e-6),
            InferenceRequest(2, test_X[2], 2e-6),
        ]
        result = make_server(small_forest, p100).run(requests)
        assert [r.request_id for r in result.responses] == [0, 1, 2]
        good0, bad, good2 = result.responses
        assert good0.ok and good2.ok
        assert np.array_equal(good0.predictions, reference[0:1])
        assert np.array_equal(good2.predictions, reference[2:3])
        assert bad.error.code == REJECTED_INVALID
        assert f"({width - 6},)" in bad.error.detail
        assert_tiles(bad)
        assert result.summary["rejected_invalid"] == 1
        assert result.summary["completed"] == 2

    def test_submit_returns_the_refusal(self, small_forest, p100):
        server = make_server(small_forest, p100)
        response = server.submit(
            InferenceRequest(7, np.zeros((2, 3, small_forest.n_attributes)), 0.5)
        )
        assert response.error.code == REJECTED_INVALID
        assert response.completion_time == 0.5
        assert server.queue_depth == 0
        counters = server.metrics().snapshot()["counters"]
        assert counters["serving.rejected.invalid_request"] == 1
        assert counters["serving.requests_total"] == 1

    def test_valid_traffic_registers_no_failure_counters(
        self, small_forest, p100, test_X
    ):
        server = make_server(small_forest, p100)
        result = server.run([InferenceRequest(i, test_X[i], 0.0) for i in range(5)])
        counters = server.metrics().snapshot()["counters"]
        assert "serving.rejected.invalid_request" not in counters
        assert "serving.engine_errors" not in counters
        assert result.summary["rejected_invalid"] == result.summary["engine_errors"] == 0


class TestResponseOwnership:
    def test_responses_dispatched_inside_submit_reach_the_next_run(
        self, small_forest, p100, test_X
    ):
        server = make_server(small_forest, p100, target_batch=2)
        # Request 1 fills a batch of two: submit() dispatches it.
        queued = [server.submit(InferenceRequest(i, test_X[i], i * 1e-6)) for i in range(3)]
        assert queued == [None, None, None]
        result = server.run()
        assert [r.request_id for r in result.responses] == [0, 1, 2]
        assert all(r.ok for r in result.responses)
        assert server.summary()["requests"] == server.summary()["completed"] == 3
        assert server.run().responses == []


class TestEngineErrors:
    def test_fault_fails_only_its_batch(self, small_forest, p100, test_X, reference):
        server = make_server(small_forest, p100, max_wait=1e-3)
        poison_engines(server)
        poisoned = test_X[5].copy()
        poisoned[0] = POISON
        # Three micro-batches, one per max-wait window; the middle one
        # carries the poisoned row.
        requests = [InferenceRequest(i, test_X[i], 0.0 + i * 1e-5) for i in range(3)]
        requests += [InferenceRequest(3, test_X[3], 1.0), InferenceRequest(4, poisoned, 1.0)]
        requests += [InferenceRequest(i, test_X[i], 2.0) for i in range(5, 8)]
        result = server.run(requests)
        by_id = {r.request_id: r for r in result.responses}
        assert sorted(by_id) == list(range(8))
        for i in (3, 4):
            assert by_id[i].error.code == ENGINE_ERROR
            assert "injected engine fault" in by_id[i].error.detail
            assert_tiles(by_id[i])
        for i in (0, 1, 2, 5, 6, 7):
            assert by_id[i].ok
            assert np.array_equal(by_id[i].predictions, reference[i : i + 1])
            assert_tiles(by_id[i])
        assert result.summary["engine_errors"] == 2
        assert result.summary["batches"] == 2


@st.composite
def request_mix(draw, width, n_pool):
    n = draw(st.integers(1, 40))
    requests = []
    t = 0.0
    for i in range(n):
        t += draw(st.sampled_from([0.0, 1e-5, 4e-4, 3e-3]))
        kind = draw(st.sampled_from(["valid", "valid", "valid", "wide", "narrow", "3d", "poison"]))
        rows = draw(st.integers(1, 3))
        start = draw(st.integers(0, n_pool - rows))
        X = None
        if kind in ("valid", "poison"):
            X = np.array(range(start, start + rows))
        elif kind == "wide":
            X = np.zeros((rows, width + draw(st.integers(1, 4))), np.float32)
        elif kind == "narrow":
            X = np.zeros((rows, draw(st.integers(1, width - 1))), np.float32)
        else:
            X = np.zeros((rows, 2, width), np.float32)
        requests.append((kind, X, t))
    return requests


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_request_gets_exactly_one_response(
    data, small_forest, p100, test_X, reference
):
    width = small_forest.n_attributes
    mix = data.draw(request_mix(width, test_X.shape[0]))
    server = make_server(
        small_forest, p100, target_batch=data.draw(st.sampled_from([2, 8, 64]))
    )
    poison_engines(server)
    # Each request goes in through a direct submit() or a run() call;
    # the run() calls come in order of arrival, every few requests.
    direct = data.draw(st.lists(st.booleans(), min_size=len(mix), max_size=len(mix)))
    responses, batch = [], []
    for i, (kind, X, t) in enumerate(mix):
        if kind in ("valid", "poison"):
            rows = test_X[X].copy()
            if kind == "poison":
                rows[-1, 0] = POISON
            X = rows
        request = InferenceRequest(i, X, t)
        if direct[i]:
            responses += server.run(batch, until=t).responses
            batch = []
            refused = server.submit(request)
            if refused is not None:
                responses.append(refused)
        else:
            batch.append(request)
    responses += server.run(batch).responses
    responses.sort(key=lambda r: r.request_id)
    ids = [r.request_id for r in responses]
    assert ids == list(range(len(mix)))
    # An engine error completes at its batch's dispatch time.
    poisoned_batches = {
        r.completion_time for (kind, _, _), r in zip(mix, responses) if kind == "poison"
    }
    for (kind, X, _), response in zip(mix, responses):
        assert_tiles(response)
        if kind in ("wide", "narrow", "3d"):
            assert response.error.code == REJECTED_INVALID
        elif kind == "poison":
            assert response.error.code == ENGINE_ERROR
        elif response.ok:
            assert np.array_equal(response.predictions, reference[X])
        else:
            # A valid request fails only beside a poisoned one.
            assert response.error.code == ENGINE_ERROR
            assert response.completion_time in poisoned_batches
    summary = server.summary()
    assert summary["requests"] == len(mix)
    assert (
        summary["completed"] + summary["rejected_invalid"] + summary["engine_errors"]
        == len(mix)
    )

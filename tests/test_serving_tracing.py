"""Request-scoped tracing: spans must tile [arrival, completion] exactly."""

import json

import pytest

from repro.obs import serving_trace_events, write_serving_trace
from repro.serving import (
    REJECTED_DEADLINE,
    REJECTED_QUEUE_FULL,
    InferenceRequest,
    SchedulerConfig,
    TahoeServer,
    poisson_workload,
)
from repro.serving.tracing import RequestTrace, StageSpan


def make_server(forest, spec, **overrides):
    defaults = dict(n_engines=1, max_wait=1e-3, max_batch=256)
    defaults.update(overrides)
    return TahoeServer(forest, spec, scheduler=SchedulerConfig(**defaults))


def single_sample_requests(X, n, *, start=0.0, spacing=0.0, deadline=None):
    return [
        InferenceRequest(
            request_id=i,
            X=X[i % X.shape[0]][None, :],
            arrival_time=start + i * spacing,
            deadline=(start + i * spacing + deadline) if deadline is not None else None,
        )
        for i in range(n)
    ]

LIVE_STAGES = [
    "queue_wait",
    "batch_assembly",
    "kernel",
    "reduction",
    "response_fanout",
]


class TestSpanTiling:
    def test_spans_cover_lifetime_without_gaps_or_overlaps(
        self, small_forest, p100, test_X
    ):
        server = make_server(small_forest, p100, n_engines=2)
        reqs = poisson_workload(test_X, qps=3000, duration=0.05, seed=7)
        result = server.run(reqs)
        assert result.responses and all(r.ok for r in result.responses)
        for resp in result.responses:
            trace = resp.trace
            assert isinstance(trace, RequestTrace)
            spans = trace.spans
            assert [s.stage for s in spans] == LIVE_STAGES
            # The ISSUE contract: enqueue→response, no gaps, no overlaps.
            assert spans[0].start == resp.arrival_time
            assert spans[-1].end == resp.completion_time
            for prev, cur in zip(spans, spans[1:]):
                assert cur.start == prev.end
            assert all(s.duration >= 0 for s in spans)
            # Stage durations decompose the end-to-end latency exactly.
            total = sum(trace.stage_durations().values())
            latency = resp.completion_time - resp.arrival_time
            assert total == pytest.approx(latency, abs=1e-12)

    def test_trace_ids_are_unique_and_stable(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        result = server.run(single_sample_requests(test_X, 20, spacing=1e-5))
        ids = [r.trace.trace_id for r in result.responses]
        assert len(set(ids)) == len(ids)
        for resp in result.responses:
            assert resp.trace.request_id == resp.request_id

    def test_span_args_carry_stage_context(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        result = server.run(single_sample_requests(test_X, 10, spacing=1e-9))
        trace = result.responses[0].trace
        assembly = trace.stage("batch_assembly")
        assert assembly.args["batch_size"] >= 1
        assert "engine" in assembly.args
        fanout = trace.stage("response_fanout")
        assert fanout.args["missed_deadline"] is False

    def test_tracing_can_be_disabled(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, request_tracing=False)
        result = server.run(single_sample_requests(test_X, 5, spacing=1e-5))
        assert all(r.trace is None for r in result.responses)


class TestRejectionTraces:
    def test_deadline_rejection_gets_degenerate_trace(
        self, small_forest, p100, test_X
    ):
        server = make_server(small_forest, p100, max_wait=1e-2, max_batch=10_000)
        reqs = single_sample_requests(test_X, 6, spacing=1e-6, deadline=1e-4)
        result = server.run(reqs)
        for resp in result.responses:
            assert not resp.ok
            spans = resp.trace.spans
            assert [s.stage for s in spans] == ["queue_wait", "response_fanout"]
            assert spans[0].start == resp.arrival_time
            assert spans[0].end == spans[1].start == spans[1].end
            assert spans[1].args["rejected"] == REJECTED_DEADLINE

    def test_queue_full_rejection_gets_degenerate_trace(
        self, small_forest, p100, test_X
    ):
        server = make_server(
            small_forest, p100, max_queue=3, max_batch=10_000, max_wait=10.0
        )
        result = server.run(single_sample_requests(test_X, 8, spacing=1e-9))
        rejected = [r for r in result.responses if not r.ok]
        assert rejected
        for resp in rejected:
            assert resp.trace.stage("response_fanout").args["rejected"] == (
                REJECTED_QUEUE_FULL
            )


class TestChromeTraceExport:
    def test_one_track_per_stage_and_valid_events(
        self, small_forest, p100, test_X, tmp_path
    ):
        server = make_server(small_forest, p100)
        result = server.run(single_sample_requests(test_X, 15, spacing=1e-5))
        events = serving_trace_events(result.responses)
        tracks = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert tracks >= {
            "stage:queue_wait",
            "stage:batch_assembly",
            "stage:kernel",
            "stage:reduction",
        }
        # One track (tid) per stage: every span of a stage shares its tid.
        tids = {}
        for e in events:
            if e.get("ph") != "X":
                continue
            tids.setdefault(e["args"]["stage"], set()).add(e["tid"])
            assert e["dur"] >= 0
        assert set(tids) == set(LIVE_STAGES)
        assert all(len(t) == 1 for t in tids.values())

        out = tmp_path / "trace.json"
        write_serving_trace(result.responses, out)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_report_embeds_traces_with_cap(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        result = server.run(
            single_sample_requests(test_X, 12, spacing=1e-5), report=True
        )
        traces = result.report.meta["request_traces"]
        assert len(traces) == 12
        assert "request_traces_dropped" not in result.report.meta
        for t in traces:
            assert t["spans"][0]["stage"] == "queue_wait"


class TestStageSpanBasics:
    def test_duration_and_dict_round_trip(self):
        span = StageSpan("kernel", 1.0, 1.5, {"batch_size": 4})
        assert span.duration == 0.5
        assert span.to_dict() == {
            "stage": "kernel",
            "start": 1.0,
            "end": 1.5,
            "args": {"batch_size": 4},
        }
        trace = RequestTrace(trace_id="t0", request_id=0, spans=[span])
        assert trace.start == 1.0 and trace.end == 1.5 and trace.duration == 0.5
        assert trace.stage("kernel") is span
        assert trace.stage("missing") is None

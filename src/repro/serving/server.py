"""The :class:`TahoeServer` — micro-batching request scheduler.

Online serving traffic is the opposite of the paper's offline benchmarks:
requests arrive one sample at a time, and per-request GPU launches waste
the device (the launch-latency and bandwidth-utilisation terms of the §6
models dominate tiny batches).  The server therefore coalesces queued
requests into micro-batches and lets the performance models pick the
flush point: the selector already predicts per-strategy time as a
function of batch size, so the server scans candidate sizes for the knee
of the predicted per-sample time curve — the smallest batch within
``knee_tolerance`` of the best achievable per-sample cost.  Waiting past
the knee buys (almost) no efficiency and only adds latency, so the queue
flushes at ``target_batch`` samples or when the oldest request has
waited ``max_wait``, whichever comes first.

Batches dispatch round-robin onto a pool of engine replicas (the
multi-GPU deployment: one engine per device, all sharing a single
converted layout through the :class:`~repro.core.cache.LayoutCache`).
Admission control is a bounded queue — arrivals beyond ``max_queue``
are rejected immediately with a structured error (backpressure), and
requests whose deadline has passed by dispatch time are rejected
gracefully instead of poisoning the batch.

The server is also the hot-swap site of the model store: every model it
serves is a version in a :class:`~repro.modelstore.registry.ModelRegistry`.
:meth:`stage` builds a full replacement engine pool for a new version
*off* the hot path (conversion, or a packed artifact's zero-conversion
load), and :meth:`swap`/:meth:`schedule_swap` flip the pool between
micro-batches: dispatched batches complete on the old engines, queued
requests dispatch on the new ones, and nothing is dropped.  The active
version's layout is pinned in the cache so staging churn can never evict
the model currently serving traffic.

Everything runs on the simulated clock: arrivals are simulated seconds,
service times are the engines' simulated GPU seconds, so the whole
serving pipeline is deterministic and unit-testable.  The exception is
``backend="native"``: the pool is then
:class:`~repro.core.native.NativeEngine` replicas whose service times
are *measured wall seconds* (arrivals stay scripted), and the flush
point comes from the engine's own timed per-sample curve
(:meth:`~repro.core.native.NativeEngine.measure_flush_curve`) instead of
the §6 predicted one — real throughput, same scheduler.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.base import TIME_DOMAIN_SIMULATED
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.core.engine import TahoeEngine
from repro.core.fil import FILEngine
from repro.core.native import NativeEngine
from repro.gpusim.specs import GPUSpec
from repro.modelstore.registry import ModelRegistry, ModelVersion
from repro.obs.drift import CalibrationTracker
from repro.obs.recorder import RunRecorder
from repro.obs.report import RunReport
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.perfmodel.selector import rank_strategies
from repro.serving.api import PolicyConfig, SchedulerConfig, materialize_workload
from repro.serving.request import (
    REJECTED_DEADLINE,
    REJECTED_QUEUE_FULL,
    InferenceRequest,
    InferenceResponse,
    ServingError,
)
from repro.serving.slo import SLOConfig, SLOMonitor
from repro.serving.tracing import RequestTrace, StageSpan
from repro.trees.forest import Forest

__all__ = ["SchedulerConfig", "ServingResult", "TahoeServer"]

#: Cap on per-request traces carried into a RunReport (the responses
#: themselves always carry their own trace regardless).
MAX_REPORT_TRACES = 2000


@dataclass
class ServingResult:
    """Outcome of one :meth:`TahoeServer.run` call.

    Attributes:
        responses: one per submitted request, submission order.
        summary: JSON-ready aggregate statistics (latency quantiles,
            batch-size histogram, rejection/deadline counters, cache).
        report: the serving run's :class:`RunReport`.
    """

    responses: list[InferenceResponse]
    summary: dict
    report: RunReport | None = None

    @property
    def completed(self) -> list[InferenceResponse]:
        return [r for r in self.responses if r.ok]

    @property
    def rejected(self) -> list[InferenceResponse]:
        return [r for r in self.responses if not r.ok]


class TahoeServer:
    """Micro-batching front end over a pool of Tahoe engine replicas.

    Args:
        forest: trained forest to serve.
        spec: GPU model every replica runs on.
        scheduler: micro-batch mechanism knobs
            (:class:`~repro.serving.api.SchedulerConfig`).
        policy: service policy (:class:`~repro.serving.api.PolicyConfig`);
            its ``slo`` member replaces the deprecated ``slo=`` kwarg
            (admission/autoscale members are consumed by the fleet
            router, not here).
        config: engine configuration shared by every replica.
        hardware: pre-measured hardware parameters (measured once here
            otherwise and shared across the pool).
        recorder: serving-telemetry sink (fresh one otherwise).
        layout_cache: converted-layout cache; shared across the pool so
            the forest converts exactly once (and across servers, so a
            restart with an unchanged forest skips conversion entirely).
        registry: model-version bookkeeping; a private one is created
            otherwise.  The initial forest is registered as version 1 of
            ``model_name`` and activated.
        model_name: logical name the served model is registered under.
        packed: serve a packed ``.tahoe``
            :class:`~repro.modelstore.artifact.PackedModel` instead of a
            ``forest`` — the pool adopts the packed layout with zero
            conversion work.  Exactly one of ``forest``/``packed``.
        slo: service-level objectives — an :class:`SLOConfig` (a private
            :class:`SLOMonitor` is built) or a ready monitor; ``None``
            disables SLO evaluation.
    """

    def __init__(
        self,
        forest: Forest | None = None,
        spec: GPUSpec | None = None,
        *,
        scheduler: SchedulerConfig | None = None,
        policy: PolicyConfig | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
        registry: ModelRegistry | None = None,
        model_name: str = "default",
        packed=None,
        slo: SLOConfig | SLOMonitor | None = None,
    ) -> None:
        if spec is None:
            raise TypeError("TahoeServer requires a GPU spec")
        if (forest is None) == (packed is None):
            raise TypeError("TahoeServer takes exactly one of forest= or packed=")
        self.config = scheduler if scheduler is not None else SchedulerConfig()
        self.policy = policy if policy is not None else PolicyConfig()
        if policy is not None and policy.slo is not None:
            if slo is not None:
                raise TypeError("pass slo via policy= or the slo= kwarg, not both")
            slo = policy.slo
        self.spec = spec
        self.engine_config = config if config is not None else TahoeConfig()
        hardware = hardware or measure_hardware_parameters(spec)
        self.hardware = hardware
        self.layout_cache = layout_cache if layout_cache is not None else LayoutCache()
        self.recorder = recorder if recorder is not None else RunRecorder()
        self.registry = registry if registry is not None else ModelRegistry()
        self.model_name = model_name
        # Model-store state: staged pools by version, pending swap times.
        self._staged: dict[int, list] = {}
        self._pending_swaps: list[tuple[float, int]] = []
        self._served_by_version: TallyCounter = TallyCounter()
        self.swap_events: list[dict] = []
        version = self.registry.register(
            name=model_name,
            forest=forest,
            packed=packed,
            source="object" if packed is None else "artifact",
        )
        self._active_version = version
        self.engines = self._build_engines(version)
        self._active_key = self._version_key(version)
        if self._active_key is not None:
            self.layout_cache.pin(self._active_key)
        self.target_batch = (
            self.config.target_batch
            if self.config.target_batch is not None
            else self.plan_flush_point()
        )
        self.recorder.metrics.gauge(
            "serving.target_batch", help="model-chosen micro-batch flush point"
        ).set(self.target_batch)
        if isinstance(slo, SLOMonitor):
            self.slo = slo
            if self.slo.metrics is None:
                self.slo.metrics = self.recorder.metrics
        elif isinstance(slo, SLOConfig):
            self.slo = SLOMonitor(slo, metrics=self.recorder.metrics)
        elif slo is None:
            self.slo = None
        else:
            raise TypeError("slo must be an SLOConfig, an SLOMonitor, or None")
        # Scheduler state (persists across submit()/run() calls).
        self._queue: deque[InferenceRequest] = deque()
        self._queued_samples = 0
        self._engine_free = [0.0] * self.config.n_engines
        self._next_engine = 0
        self._batch_index = 0
        self._batch_sizes: TallyCounter = TallyCounter()
        self._clock = 0.0
        self._responses: list[InferenceResponse] = []
        self._pending: list[InferenceRequest] = []

    # ------------------------------------------------------------------
    # Model store: staging and hot swap
    # ------------------------------------------------------------------
    def _version_key(self, version: ModelVersion) -> tuple | None:
        """The layout-cache key under which ``version``'s layout lives."""
        if version.cache_key is not None:
            return version.cache_key
        if version.forest is not None and version.engine_kind == "tahoe":
            return LayoutCache.key(
                version.forest, self.spec, self.engine_config.conversion_key()
            )
        return None

    def _build_engines(self, version: ModelVersion) -> list:
        """A full replica pool for ``version`` — the expensive part of a
        deployment, run off the hot path by :meth:`stage`."""
        if self.config.backend == "native":
            # Native executes either packed format; the conversion (when
            # starting from a forest) still honours the model's kind via
            # the shared cache key, so simulator engines can reuse it.
            cls = NativeEngine
        else:
            cls = FILEngine if version.engine_kind == "fil" else TahoeEngine
        if version.layout is not None:
            # Packed artifact: zero conversion.  The first replica
            # publishes the layout under its source cache key; the rest
            # share the same object directly.
            return [
                cls.from_layout(
                    version.layout,
                    self.spec,
                    cache_key=version.cache_key if i == 0 else None,
                    config=self.engine_config,
                    hardware=self.hardware,
                    layout_cache=self.layout_cache,
                )
                for i in range(self.config.n_engines)
            ]
        return [
            cls(
                version.forest,
                self.spec,
                config=self.engine_config,
                hardware=self.hardware,
                layout_cache=self.layout_cache,
            )
            for _ in range(self.config.n_engines)
        ]

    def stage(
        self,
        *,
        forest: Forest | None = None,
        packed=None,
        source: str | None = None,
        at_time: float = 0.0,
        metadata: dict | None = None,
    ) -> ModelVersion:
        """Register a new model version and build its engine pool now.

        All conversion work (or artifact adoption) happens here, off the
        request path; :meth:`swap` later is a pointer flip.  The staged
        layout is pinned in the cache alongside the active one, so
        neither can evict the other.
        """
        version = self.registry.register(
            name=self.model_name,
            forest=forest,
            packed=packed,
            source=source,
            at_time=at_time,
            metadata=metadata,
        )
        key = self._version_key(version)
        if key is not None:
            self.layout_cache.pin(key)
        self._staged[version.version] = self._build_engines(version)
        return version

    def schedule_swap(self, version: int | None = None, *, at_time: float = 0.0) -> None:
        """Arm a staged version to take over at simulated time ``at_time``.

        The swap applies at the first dispatch at or after ``at_time``
        during :meth:`run` — between micro-batches, never inside one.
        """
        if version is None:
            if not self._staged:
                raise ValueError("no staged version to schedule")
            version = max(self._staged)
        if version not in self._staged:
            raise ValueError(f"version {version} is not staged")
        self._pending_swaps.append((at_time, version))
        self._pending_swaps.sort()

    def swap(self, version: int | None = None, *, now: float = 0.0) -> dict:
        """Atomically activate a staged version.

        In-flight work is untouched: batches already dispatched complete
        on the old pool (their responses are tagged with the old version
        label); everything still queued dispatches on the new pool.
        Returns the swap event (also in :attr:`swap_events` and the
        registry's history).
        """
        if version is None:
            if not self._staged:
                raise ValueError("no staged version to swap to")
            version = max(self._staged)
        engines = self._staged.pop(version, None)
        if engines is None:
            raise ValueError(f"version {version} is not staged")
        previous = self._active_version
        self.engines = engines  # the swap: queued work now lands here
        self._active_version = self.registry.get(self.model_name, version)
        event = self.registry.activate(self.model_name, version, at_time=now)
        new_key = self._version_key(self._active_version)
        if self._active_key is not None and self._active_key != new_key:
            self.layout_cache.unpin(self._active_key)
        self._active_key = new_key
        if self._active_key is not None:
            self.layout_cache.pin(self._active_key)
        if self.config.target_batch is None:
            self.target_batch = self.plan_flush_point()
            self.recorder.metrics.gauge("serving.target_batch").set(self.target_batch)
        self.recorder.metrics.counter(
            "serving.model_swaps", help="hot swaps applied"
        ).inc()
        event = dict(event, from_label=previous.label)
        self.swap_events.append(event)
        return event

    def _apply_due_swaps(self, now: float) -> None:
        """Apply every scheduled swap whose time has come (dispatch edge)."""
        while self._pending_swaps and self._pending_swaps[0][0] <= now:
            at_time, version = self._pending_swaps.pop(0)
            self.swap(version, now=max(at_time, now))

    @property
    def active_version(self) -> ModelVersion:
        """The model version currently taking new dispatches."""
        return self._active_version

    # ------------------------------------------------------------------
    # Flush-point planning (§6 performance models)
    # ------------------------------------------------------------------
    def plan_flush_point(self) -> int:
        """Smallest batch within ``knee_tolerance`` of the best
        per-sample time.

        Scans power-of-two candidates up to ``max_batch`` and returns
        the knee of the per-sample cost curve.  On the simulated
        backends the curve is *predicted* by :func:`rank_strategies` —
        the same models Algorithm 1 uses per batch; on the native
        backend the curve is *measured*: the pool's first replica times
        its own kernel at each candidate size
        (:meth:`~repro.core.native.NativeEngine.measure_flush_curve`),
        so the flush point tracks the machine actually serving.
        """
        layout = self.engines[0].layout
        candidates = []
        b = 1
        while b < self.config.max_batch:
            candidates.append(b)
            b *= 2
        candidates.append(self.config.max_batch)
        if self.config.backend == "native":
            per_sample = self.engines[0].measure_flush_curve(candidates)
        else:
            per_sample = {}
            for b in candidates:
                best = rank_strategies(layout, b, self.spec, self.hardware)[0]
                per_sample[b] = best.predicted_time / b
        floor = min(per_sample.values())
        for b in candidates:
            if per_sample[b] <= (1.0 + self.config.knee_tolerance) * floor:
                return b
        return self.config.max_batch

    # ------------------------------------------------------------------
    # Event-driven scheduling (simulated clock)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently queued (not yet coalesced into a batch)."""
        return len(self._queue)

    @property
    def queued_samples(self) -> int:
        """Samples currently queued awaiting coalescing."""
        return self._queued_samples

    def submit(self, request: InferenceRequest) -> InferenceResponse | None:
        """Admit one request at its arrival time.

        Advances the simulated clock to the arrival (forced flushes
        whose max-wait expires first happen first, in simulated-time
        order), applies bounded-queue admission, and dispatches any
        batches the arrival completes.  Returns the structured rejection
        response when admission fails; ``None`` when the request is
        queued — its response is produced by a later dispatch and
        collected by :meth:`run`.
        """
        metrics = self.recorder.metrics
        self._flush_due(request.arrival_time, self._responses)
        self._clock = max(self._clock, request.arrival_time)
        metrics.histogram(
            "serving.queue_depth", help="queued requests at each arrival"
        ).observe(len(self._queue))
        metrics.counter("serving.requests_total").inc()
        if len(self._queue) >= self.config.max_queue:
            metrics.counter("serving.rejected.queue_full").inc()
            rejection = InferenceResponse(
                request_id=request.request_id,
                predictions=None,
                arrival_time=request.arrival_time,
                completion_time=self._clock,
                error=ServingError(
                    REJECTED_QUEUE_FULL,
                    f"queue at capacity ({self.config.max_queue} requests)",
                ),
                trace=self._reject_trace(request, self._clock, REJECTED_QUEUE_FULL),
            )
            self._responses.append(rejection)
            if self.slo is not None:
                self.slo.observe(now=self._clock, ok=False)
            return rejection
        self._queue.append(request)
        self._queued_samples += request.n_samples
        while self._queued_samples >= self.target_batch:
            self._dispatch(self._clock, self._responses)
        return None

    def run(
        self,
        workload: Iterable[InferenceRequest] | None = None,
        *,
        until: float | None = None,
        report: bool = False,
    ) -> ServingResult:
        """Serve a workload of timestamped requests.

        ``workload`` is an iterable of requests or a
        :class:`~repro.serving.api.Workload` (materialised with its own
        seed over ``until`` — or its ``duration`` — as the horizon).
        Requests are processed in arrival order.  With ``until=None``
        the queue drains fully; otherwise the clock stops at ``until``
        (due flushes applied, later arrivals held for the next call).
        Returns one response per request this call resolved (successes
        and structured rejections alike).
        """
        mark = len(self._responses)
        requests = self._pending + materialize_workload(workload, until)
        self._pending = []
        requests.sort(key=lambda r: r.arrival_time)
        for req in requests:
            if until is not None and req.arrival_time > until:
                self._pending.append(req)
                continue
            self.submit(req)
        if until is None:
            # Drain: whatever is still queued flushes at its max-wait point.
            while self._queue:
                due = self._queue[0].arrival_time + self.config.max_wait
                self._dispatch(max(self._clock, due), self._responses)
        else:
            self._flush_due(until, self._responses)
            self._clock = max(self._clock, until)
        responses = self._responses[mark:]
        summary = self.summary(responses)
        run_report = None
        if report:
            n_ok = int(sum(r.predictions.shape[0] for r in responses if r.ok))
            run_report = self.build_report(
                n_samples=n_ok, serving_summary=summary, responses=responses
            )
        responses = sorted(responses, key=lambda r: r.request_id)
        return ServingResult(responses=responses, summary=summary, report=run_report)

    def _flush_due(self, until: float, responses: list[InferenceResponse]) -> None:
        """Dispatch every queued group whose max-wait expires by ``until``."""
        while self._queue:
            due = self._queue[0].arrival_time + self.config.max_wait
            if due > until:
                break
            self._dispatch(due, responses)

    def _dispatch(self, now: float, responses: list[InferenceResponse]) -> None:
        """Coalesce the queue head into one micro-batch and run it."""
        if not self._queue:
            return
        # Scheduled hot swaps land here: between batches, so a batch is
        # never split across model versions.
        self._apply_due_swaps(now)
        metrics = self.recorder.metrics
        batch: list[InferenceRequest] = []
        total = 0
        while self._queue:
            nxt = self._queue[0]
            if batch and total + nxt.n_samples > self.config.max_batch:
                break
            # Kind-homogeneous coalescing: predict and explain requests
            # run different kernels, so a micro-batch never mixes them —
            # a kind boundary in the queue closes the batch early.
            if batch and nxt.kind != batch[0].kind:
                break
            batch.append(self._queue.popleft())
            total += nxt.n_samples
            self._queued_samples -= nxt.n_samples
            if total >= self.target_batch:
                break
        # Deadline admission: anything already expired is rejected with a
        # structured error instead of wasting batch capacity (and instead
        # of raising mid-batch).
        live: list[InferenceRequest] = []
        for req in batch:
            if req.deadline is not None and req.deadline < now:
                metrics.counter("serving.rejected.deadline").inc()
                responses.append(
                    InferenceResponse(
                        request_id=req.request_id,
                        predictions=None,
                        arrival_time=req.arrival_time,
                        completion_time=now,
                        error=ServingError(
                            REJECTED_DEADLINE,
                            f"deadline {req.deadline:.6f}s passed before dispatch "
                            f"at {now:.6f}s",
                        ),
                        trace=self._reject_trace(req, now, REJECTED_DEADLINE),
                    )
                )
                if self.slo is not None:
                    self.slo.observe(now=now, ok=False)
            else:
                live.append(req)
        if not live:
            return
        g = self._next_engine
        self._next_engine = (self._next_engine + 1) % len(self.engines)
        start = max(now, self._engine_free[g])
        X = np.concatenate([req.X for req in live], axis=0)
        cache_hit = bool(self.engines[g].conversion_stats.cache_hit)
        explaining = live[0].kind == "explain"
        if explaining:
            result = self.engines[g].explain(X)
            metrics.counter(
                "serving.explain_batches", help="explain micro-batches dispatched"
            ).inc()
        else:
            result = self.engines[g].predict(X)
        service = result.total_time
        completion = start + service
        self._engine_free[g] = completion
        # Kernel/reduction split for the stage spans: the engine's
        # breakdown attributes the reduction tail of each simulated batch.
        t_reduce = 0.0
        for strategy_result in result.batches:
            bd = strategy_result.breakdown
            t_reduce += getattr(bd, "t_block_reduce", 0.0) + getattr(
                bd, "t_global_reduce", 0.0
            )
        kernel_end = start + max(0.0, service - min(t_reduce, service))
        metrics.histogram(
            "serving.batch_size", help="coalesced samples per dispatched micro-batch"
        ).observe(X.shape[0])
        self._batch_sizes[int(X.shape[0])] += 1
        metrics.counter("serving.batches_total").inc()
        metrics.counter("serving.samples_total").inc(X.shape[0])
        for strategy_result in result.batches:
            self.recorder.record_batch(self._batch_index, strategy_result)
            self._batch_index += 1
        label = self._active_version.label
        self._served_by_version[label] += len(live)
        tracing = self.config.request_tracing
        # Hoisted metric handles: registry lookups and the batch-constant
        # stage durations (assembly/kernel/reduction are identical for
        # every request in the micro-batch) cost one call per dispatch,
        # not one per request — the per-request loop below is the serving
        # tier's hot path.
        n_live = len(live)
        miss_counter = metrics.counter("serving.deadline_misses")
        completed_counter = metrics.counter("serving.completed")
        latency_hist = metrics.histogram(
            "serving.request_latency_seconds",
            help="arrival-to-completion latency per request",
        )
        wait_hist = metrics.histogram(
            "serving.queue_wait_seconds",
            help="arrival-to-dispatch wait per request",
        )
        stage_queue_hist = metrics.histogram(
            "serving.stage.queue_wait_seconds",
            help="per-request queue_wait stage duration",
        )
        for stage, value in (
            ("batch_assembly", start - now),
            ("kernel", kernel_end - start),
            ("reduction", completion - kernel_end),
        ):
            metrics.histogram(
                f"serving.stage.{stage}_seconds",
                help=f"per-request {stage} stage duration",
            ).observe(value, n_live)
        completed_counter.inc(n_live)
        if tracing:
            # Spans are immutable once recorded, and four of the six
            # stages are identical for every request in the micro-batch
            # (only queue_wait's start and response_fanout's outcome are
            # per-request) — share those span objects across the batch.
            assembly_span = StageSpan(
                "batch_assembly",
                now,
                start,
                {"batch_size": int(X.shape[0]), "engine": g},
            )
            cache_span = StageSpan(
                "cache_lookup", start, start, {"cache_hit": cache_hit}
            )
            kernel_span = StageSpan("kernel", start, kernel_end)
            reduce_span = StageSpan("reduction", kernel_end, completion)
            fanout_ok = StageSpan(
                "response_fanout", completion, completion, {"missed_deadline": False}
            )
            fanout_missed = StageSpan(
                "response_fanout", completion, completion, {"missed_deadline": True}
            )
        offset = 0
        for req in live:
            preds = result.predictions[offset : offset + req.n_samples]
            attrs = (
                result.attributions[offset : offset + req.n_samples]
                if explaining
                else None
            )
            offset += req.n_samples
            missed = req.deadline is not None and completion > req.deadline
            if missed:
                miss_counter.inc()
            latency = completion - req.arrival_time
            queue_wait = start - req.arrival_time
            latency_hist.observe(latency)
            wait_hist.observe(queue_wait)
            stage_queue_hist.observe(now - req.arrival_time)
            trace = None
            if tracing:
                trace = RequestTrace(
                    trace_id=req.trace_id,
                    request_id=req.request_id,
                    spans=[
                        StageSpan("queue_wait", req.arrival_time, now),
                        assembly_span,
                        cache_span,
                        kernel_span,
                        reduce_span,
                        fanout_missed if missed else fanout_ok,
                    ],
                )
            if self.slo is not None:
                self.slo.observe(
                    now=completion,
                    latency=latency,
                    queue_wait=queue_wait,
                    ok=not missed,
                )
            responses.append(
                InferenceResponse(
                    request_id=req.request_id,
                    predictions=preds,
                    arrival_time=req.arrival_time,
                    completion_time=completion,
                    missed_deadline=missed,
                    model_version=label,
                    trace=trace,
                    attributions=attrs,
                    base_values=result.base_values if explaining else None,
                )
            )

    def _reject_trace(self, req: InferenceRequest, now: float, code: str):
        """Degenerate trace for a rejected request: the time it spent
        queued (zero for queue-full rejections) plus a zero-length
        fan-out span carrying the rejection code."""
        if not self.config.request_tracing:
            return None
        return RequestTrace(
            trace_id=req.trace_id,
            request_id=req.request_id,
            spans=[
                StageSpan("queue_wait", req.arrival_time, now),
                StageSpan("response_fanout", now, now, {"rejected": code}),
            ],
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def metrics(self):
        """The live :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.recorder.metrics

    def summary(self, responses: list[InferenceResponse] | None = None) -> dict:
        """JSON-ready aggregate of a serving run.

        Defaults to every response this server has produced; pass an
        explicit window (e.g. one :meth:`run` call's responses) to
        scope the per-response fields — counters and histograms read
        the cumulative metrics regardless.
        """
        if responses is None:
            responses = list(self._responses)
        metrics = self.recorder.metrics
        latency = metrics.histogram("serving.request_latency_seconds")
        queue_wait = metrics.histogram("serving.queue_wait_seconds")
        batch_hist = metrics.histogram("serving.batch_size")
        completed = [r for r in responses if r.ok]
        makespan = offered_span = 0.0
        if completed:
            first = min(r.arrival_time for r in completed)
            last = max(r.completion_time for r in completed)
            makespan = last - first
        if responses:
            offered_span = max(r.arrival_time for r in responses) - min(
                r.arrival_time for r in responses
            )
        n_samples = int(sum(r.predictions.shape[0] for r in completed))
        lat_p50, lat_p95, lat_p99 = latency.quantiles((0.5, 0.95, 0.99))
        wait_p50, wait_p95, wait_p99 = queue_wait.quantiles((0.5, 0.95, 0.99))
        return {
            "requests": len(responses),
            "completed": len(completed),
            "rejected_queue_full": int(
                metrics.counter("serving.rejected.queue_full").value
            ),
            "rejected_deadline": int(metrics.counter("serving.rejected.deadline").value),
            "deadline_misses": int(metrics.counter("serving.deadline_misses").value),
            "batches": batch_hist.count,
            "target_batch": self.target_batch,
            "n_engines": len(self.engines),
            "backend": self.config.backend,
            "time_domain": getattr(
                self.engines[0], "time_domain", TIME_DOMAIN_SIMULATED
            ),
            "offered_qps": (len(responses) / offered_span)
            if offered_span > 0
            else float("inf"),
            "achieved_qps": (len(completed) / makespan) if makespan > 0 else float("inf"),
            "achieved_samples_per_s": (n_samples / makespan)
            if makespan > 0
            else float("inf"),
            "latency_s": {
                "p50": lat_p50,
                "p95": lat_p95,
                "p99": lat_p99,
                "mean": latency.mean,
                "max": latency.max,
            },
            "queue_wait_s": {
                "p50": wait_p50,
                "p95": wait_p95,
                "p99": wait_p99,
                "mean": queue_wait.mean,
                "max": queue_wait.max,
            },
            "slo": self.slo.summary() if self.slo is not None else None,
            "batch_size_histogram": {
                str(k): int(v) for k, v in sorted(self._batch_sizes.items())
            },
            "model": {
                "active": self._active_version.label,
                "staged": sorted(self._staged),
                "swaps": int(self.recorder.metrics.counter("serving.model_swaps").value),
                "swap_events": list(self.swap_events),
                "served_by_version": {
                    k: int(v) for k, v in sorted(self._served_by_version.items())
                },
            },
            "layout_cache": self.layout_cache.stats(),
            "conversions": [
                {
                    "cache_hit": e.conversion_stats.cache_hit,
                    "total_s": e.conversion_stats.total,
                }
                for e in self.engines
            ],
        }

    def build_report(
        self, responses: list[InferenceResponse] | None = None, **meta
    ) -> RunReport:
        """Assemble serving telemetry into a :class:`RunReport`.

        When ``responses`` are given (and tracing is on) the first
        :data:`MAX_REPORT_TRACES` request traces ride along in
        ``meta["request_traces"]``; the SLO summary and the engine
        pool's merged calibration drift are folded in regardless.
        """
        meta = dict(meta)
        if responses is not None and self.config.request_tracing:
            traces = [
                r.trace.to_dict()
                for r in responses[:MAX_REPORT_TRACES]
                if r.trace is not None
            ]
            meta["request_traces"] = traces
            dropped = len(responses) - MAX_REPORT_TRACES
            if dropped > 0:
                meta["request_traces_dropped"] = dropped
        if self.slo is not None:
            meta["slo"] = self.slo.summary()
        report = self.recorder.build_report(
            engine="tahoe-serving", gpu=self.spec.name, **meta
        )
        # The selector decisions happen inside each replica's own
        # recorder; fold their calibration residuals into one pool view.
        merged = CalibrationTracker(warn=False)
        merged.merge(self.recorder.calibration)
        for engine in self.engines:
            merged.merge(engine.recorder.calibration)
        report.calibration = merged.summary()
        return report

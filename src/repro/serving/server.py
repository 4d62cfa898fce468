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

import time
from collections import Counter as TallyCounter
from collections import deque
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from repro.core import engine_class
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.gpusim.specs import GPUSpec
from repro.modelstore.registry import ModelRegistry, ModelVersion
from repro.obs.drift import CalibrationTracker
from repro.obs.recorder import RunRecorder
from repro.obs.report import RunReport
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.perfmodel.selector import rank_strategies
from repro.serving.api import SchedulerConfig, materialize_workload
from repro.serving.request import (
    ENGINE_ERROR,
    REJECTED_DEADLINE,
    REJECTED_INVALID,
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

#: Wall-clock layers of the serving loop, each accumulated into a
#: ``serving.wall.<layer>_seconds`` counter next to ``run_seconds``:
#: ``admission`` — :meth:`TahoeServer.run`'s arrival loop (submit,
#: validation, admission control) outside the dispatches it triggers;
#: per dispatch, ``assembly`` (dequeue, deadline filter, concatenate),
#: ``engine`` (the engine call's outer wall), ``telemetry`` (latency and
#: wait accounting, histograms, counters, batch records) and ``fanout``
#: (per-request responses and traces); ``result`` — the run's closing
#: summary capture, report and response ordering.
WALL_LAYERS = ("admission", "assembly", "engine", "telemetry", "fanout", "result")

#: The counter each kind of error response increments.
_REFUSAL_COUNTERS = {
    REJECTED_QUEUE_FULL: "serving.rejected.queue_full",
    REJECTED_DEADLINE: "serving.rejected.deadline",
    REJECTED_INVALID: "serving.rejected.invalid_request",
    ENGINE_ERROR: "serving.engine_errors",
}


class ServingResult:
    """Outcome of one :meth:`TahoeServer.run` call.

    Attributes:
        responses: one per submitted request, submission order.
        summary: JSON-ready aggregate statistics (latency quantiles,
            batch-size histogram, rejection/deadline counters, cache).
            Built on first read from what the run froze at its end, so
            it equals what an eager summary would have returned then,
            and a caller that never reads it never pays for it.
        report: the serving run's :class:`RunReport`.
    """

    __slots__ = ("responses", "report", "_summary")

    def __init__(
        self,
        responses: list[InferenceResponse],
        summary: dict | Callable[[], dict],
        report: RunReport | None = None,
    ) -> None:
        self.responses = responses
        self.report = report
        self._summary = summary

    @property
    def summary(self) -> dict:
        if callable(self._summary):
            self._summary = self._summary()
        return self._summary

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
        self._row_shape = self._model_row_shape()
        # Per-arrival accounting buffered until the next fold: the queue
        # depth each arrival saw (one histogram pass per run, not one
        # update per request) and the wall seconds of each layer.
        self._arrival_depths: list[int] = []
        self._wall = dict.fromkeys(WALL_LAYERS + ("run",), 0.0)

    def _model_row_shape(self) -> tuple[int]:
        """The ``X.shape[1:]`` every request for the active model must have."""
        return (int(self.engines[0].forest.n_attributes),)

    # ------------------------------------------------------------------
    # Model store: staging and hot swap
    # ------------------------------------------------------------------
    def _version_key(self, version: ModelVersion) -> tuple | None:
        """The layout-cache key under which ``version``'s layout lives."""
        if version.cache_key is not None:
            return version.cache_key
        if version.forest is not None:
            cls = engine_class(version.engine_kind, self.config.backend)
            return LayoutCache.key(
                version.forest, self.spec, cls.conversion_key(self.engine_config)
            )
        return None

    def _build_engines(self, version: ModelVersion) -> list:
        """A full replica pool for ``version`` — the expensive part of a
        deployment, run off the hot path by :meth:`stage`."""
        cls = engine_class(version.engine_kind, self.config.backend)
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
        self._row_shape = self._model_row_shape()
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

    def submit(self, request: InferenceRequest) -> InferenceResponse | None:
        """Admit one request at its arrival time.

        Advances the simulated clock to the arrival (forced flushes
        whose max-wait expires first happen first, in simulated-time
        order), checks the request's shape against the active model,
        applies bounded-queue admission, and dispatches any batches the
        arrival completes.  Returns the structured rejection response
        when the request is malformed or admission fails; ``None`` when
        the request is queued — its response is produced by a later
        dispatch and collected by :meth:`run`.
        """
        queue = self._queue
        arrival = request.arrival_time
        if queue and queue[0].arrival_time + self.config.max_wait <= arrival:
            self._flush_due(arrival)
        if arrival > self._clock:
            self._clock = arrival
        self._arrival_depths.append(len(queue))
        if request.X.shape[1:] != self._row_shape:
            return self._refuse(
                request,
                self._clock,
                REJECTED_INVALID,
                f"request rows have shape {request.X.shape[1:]}, the model "
                f"takes {self._row_shape}",
            )
        if len(queue) >= self.config.max_queue:
            return self._refuse(
                request,
                self._clock,
                REJECTED_QUEUE_FULL,
                f"queue at capacity ({self.config.max_queue} requests)",
            )
        queue.append(request)
        self._queued_samples += request.n_samples
        while self._queued_samples >= self.target_batch:
            self._dispatch(self._clock)
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
        and structured rejections alike); the result's ``summary`` is
        built when first read.
        """
        wall = self._wall
        t_start = time.perf_counter()
        dispatched = self._dispatch_seconds()
        mark = len(self._responses)
        requests = self._pending + materialize_workload(workload, until)
        self._pending = []
        requests.sort(key=attrgetter("arrival_time"))
        for req in requests:
            if until is not None and req.arrival_time > until:
                self._pending.append(req)
                continue
            self.submit(req)
        t_admitted = time.perf_counter()
        wall["admission"] += max(
            0.0, t_admitted - t_start - (self._dispatch_seconds() - dispatched)
        )
        if until is None:
            # Drain: whatever is still queued flushes at its max-wait point.
            while self._queue:
                due = self._queue[0].arrival_time + self.config.max_wait
                self._dispatch(max(self._clock, due))
        else:
            self._flush_due(until)
            self._clock = max(self._clock, until)
        t_result = time.perf_counter()
        responses = self._responses[mark:]
        summary = partial(_summarize, responses, self._freeze())
        run_report = None
        if report:
            summary = summary()
            n_ok = int(sum(r.predictions.shape[0] for r in responses if r.ok))
            run_report = self.build_report(
                n_samples=n_ok, serving_summary=summary, responses=responses
            )
        result = ServingResult(
            responses=sorted(responses, key=attrgetter("request_id")),
            summary=summary,
            report=run_report,
        )
        t_end = time.perf_counter()
        wall["result"] += t_end - t_result
        wall["run"] += t_end - t_start
        self._fold()
        return result

    def _dispatch_seconds(self) -> float:
        """Wall seconds spent in dispatches since the last fold."""
        wall = self._wall
        return wall["assembly"] + wall["engine"] + wall["telemetry"] + wall["fanout"]

    def _fold(self) -> None:
        """Fold buffered per-arrival accounting and layer wall seconds
        into the metrics registry (once per :meth:`run`)."""
        metrics = self.recorder.metrics
        depths = self._arrival_depths
        if depths:
            metrics.counter("serving.requests_total").inc(len(depths))
            metrics.histogram(
                "serving.queue_depth", help="queued requests at each arrival"
            ).observe_many(depths)
            self._arrival_depths = []
        wall = self._wall
        for layer, seconds in wall.items():
            if seconds:
                metrics.counter(
                    f"serving.wall.{layer}_seconds",
                    help=f"measured wall seconds in the serving {layer} layer",
                ).inc(seconds)
                wall[layer] = 0.0

    def _flush_due(self, until: float) -> None:
        """Dispatch every queued group whose max-wait expires by ``until``."""
        while self._queue:
            due = self._queue[0].arrival_time + self.config.max_wait
            if due > until:
                break
            self._dispatch(due)

    def _dispatch(self, now: float) -> None:
        """Coalesce the queue head into one micro-batch and run it.

        Per-batch work happens once per batch: latencies, waits and the
        deadline-miss mask are numpy arrays over the batch, each
        histogram takes one :meth:`~repro.obs.metrics.Histogram.observe_many`,
        and counters move once.  The per-request loop only slices
        predictions and builds responses and traces.
        """
        if not self._queue:
            return
        wall = self._wall
        t0 = time.perf_counter()
        # Scheduled hot swaps land here: between batches, so a batch is
        # never split across model versions.
        self._apply_due_swaps(now)
        metrics = self.recorder.metrics
        batch: list[InferenceRequest] = []
        total = 0
        max_batch = self.config.max_batch
        while self._queue:
            nxt = self._queue[0]
            if batch and total + nxt.n_samples > max_batch:
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
        # of raising mid-batch).  No deadline reads as NaN: never expired,
        # never missed.
        deadlines = np.array([req.deadline for req in batch], dtype=np.float64)
        expired = deadlines < now
        live = batch
        if expired.any():
            live = []
            for req, gone in zip(batch, expired.tolist()):
                if gone:
                    self._refuse(
                        req,
                        now,
                        REJECTED_DEADLINE,
                        f"deadline {req.deadline:.6f}s passed before dispatch "
                        f"at {now:.6f}s",
                    )
                else:
                    live.append(req)
            deadlines = deadlines[~expired]
        if not live:
            wall["assembly"] += time.perf_counter() - t0
            return
        g = self._next_engine
        self._next_engine = (self._next_engine + 1) % len(self.engines)
        engine = self.engines[g]
        start = max(now, self._engine_free[g])
        X = np.concatenate([req.X for req in live], axis=0)
        cache_hit = bool(engine.conversion_stats.cache_hit)
        explaining = live[0].kind == "explain"
        t1 = time.perf_counter()
        wall["assembly"] += t1 - t0
        try:
            result = engine.explain(X) if explaining else engine.predict(X)
        except Exception as exc:  # one failed batch never takes the run down
            wall["engine"] += time.perf_counter() - t1
            detail = f"{type(exc).__name__}: {exc}"
            for req in live:
                self._refuse(req, now, ENGINE_ERROR, detail)
            return
        t2 = time.perf_counter()
        wall["engine"] += t2 - t1
        if explaining:
            metrics.counter(
                "serving.explain_batches", help="explain micro-batches dispatched"
            ).inc()
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
        n_rows = int(X.shape[0])
        n_live = len(live)
        metrics.histogram(
            "serving.batch_size", help="coalesced samples per dispatched micro-batch"
        ).observe(n_rows)
        self._batch_sizes[n_rows] += 1
        metrics.counter("serving.batches_total").inc()
        metrics.counter("serving.samples_total").inc(n_rows)
        for strategy_result in result.batches:
            self.recorder.record_batch(self._batch_index, strategy_result)
            self._batch_index += 1
        label = self._active_version.label
        self._served_by_version[label] += n_live
        for stage, value in (
            ("batch_assembly", start - now),
            ("kernel", kernel_end - start),
            ("reduction", completion - kernel_end),
        ):
            metrics.histogram(
                f"serving.stage.{stage}_seconds",
                help=f"per-request {stage} stage duration",
            ).observe(value, n_live)
        arrivals = np.array([req.arrival_time for req in live], dtype=np.float64)
        latency = completion - arrivals
        queue_wait = start - arrivals
        missed = completion > deadlines
        metrics.histogram(
            "serving.request_latency_seconds",
            help="arrival-to-completion latency per request",
        ).observe_many(latency)
        metrics.histogram(
            "serving.queue_wait_seconds",
            help="arrival-to-dispatch wait per request",
        ).observe_many(queue_wait)
        metrics.histogram(
            "serving.stage.queue_wait_seconds",
            help="per-request queue_wait stage duration",
        ).observe_many(now - arrivals)
        metrics.counter("serving.deadline_misses").inc(int(np.count_nonzero(missed)))
        metrics.counter("serving.completed").inc(n_live)
        missed = missed.tolist()
        if self.slo is not None:
            for latency_s, wait_s, miss in zip(
                latency.tolist(), queue_wait.tolist(), missed
            ):
                self.slo.observe(
                    now=completion, latency=latency_s, queue_wait=wait_s, ok=not miss
                )
        t3 = time.perf_counter()
        wall["telemetry"] += t3 - t2
        tracing = self.config.request_tracing
        if tracing:
            # Spans are immutable once recorded, and four of the six
            # stages are identical for every request in the micro-batch
            # (only queue_wait's start and response_fanout's outcome are
            # per-request) — share those span objects across the batch.
            assembly_span = StageSpan(
                "batch_assembly", now, start, {"batch_size": n_rows, "engine": g}
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
        predictions = result.predictions
        attributions = result.attributions if explaining else None
        base_values = result.base_values if explaining else None
        responses = self._responses
        offset = 0
        trace = None
        for req, miss in zip(live, missed):
            stop = offset + req.n_samples
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
                        fanout_missed if miss else fanout_ok,
                    ],
                )
            responses.append(
                InferenceResponse(
                    request_id=req.request_id,
                    predictions=predictions[offset:stop],
                    arrival_time=req.arrival_time,
                    completion_time=completion,
                    missed_deadline=miss,
                    model_version=label,
                    trace=trace,
                    attributions=None if attributions is None else attributions[offset:stop],
                    base_values=base_values,
                )
            )
            offset = stop
        wall["fanout"] += time.perf_counter() - t3

    def _refuse(
        self, req: InferenceRequest, now: float, code: str, detail: str
    ) -> InferenceResponse:
        """Answer ``req`` with a structured error at ``now``: counted,
        traced, and fed to the SLO monitor."""
        self.recorder.metrics.counter(_REFUSAL_COUNTERS[code]).inc()
        response = InferenceResponse(
            request_id=req.request_id,
            predictions=None,
            arrival_time=req.arrival_time,
            completion_time=now,
            error=ServingError(code, detail),
            trace=self._reject_trace(req, now, code),
        )
        self._responses.append(response)
        if self.slo is not None:
            self.slo.observe(now=now, ok=False)
        return response

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
        self._fold()
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
        return _summarize(responses, self._freeze())

    def _freeze(self) -> dict:
        """Everything :func:`_summarize` reads besides the responses,
        copied now so later runs cannot change it: counter values,
        histogram copies, and the scheduler and model state."""
        self._fold()
        metrics = self.recorder.metrics
        counters = {
            code: metrics.counter(name).value
            for code, name in (
                ("rejected_queue_full", "serving.rejected.queue_full"),
                ("rejected_deadline", "serving.rejected.deadline"),
                ("deadline_misses", "serving.deadline_misses"),
                ("swaps", "serving.model_swaps"),
            )
        }
        # Failure counters are registered only once a failure happened.
        for code, name in (
            ("rejected_invalid", _REFUSAL_COUNTERS[REJECTED_INVALID]),
            ("engine_errors", _REFUSAL_COUNTERS[ENGINE_ERROR]),
        ):
            counter = metrics.get(name)
            counters[code] = counter.value if counter is not None else 0
        return {
            "latency": metrics.histogram("serving.request_latency_seconds").copy(),
            "queue_wait": metrics.histogram("serving.queue_wait_seconds").copy(),
            "batches": metrics.histogram("serving.batch_size").count,
            "counters": counters,
            "target_batch": self.target_batch,
            "n_engines": len(self.engines),
            "backend": self.config.backend,
            "time_domain": self.engines[0].time_domain,
            "slo": self.slo.summary() if self.slo is not None else None,
            "batch_sizes": dict(self._batch_sizes),
            "active": self._active_version.label,
            "staged": sorted(self._staged),
            "swap_events": list(self.swap_events),
            "served_by_version": dict(self._served_by_version),
            "layout_cache": self.layout_cache.stats(),
            "conversions": [
                (e.conversion_stats.cache_hit, e.conversion_stats.total)
                for e in self.engines
            ],
        }

    def wall_layers(self) -> dict:
        """Measured wall seconds per serving layer (:data:`WALL_LAYERS`),
        summed over every :meth:`run` call, next to the calls' outer
        wall time and the share of it the layers account for."""
        metrics = self.metrics()
        parts = {}
        for layer in WALL_LAYERS:
            counter = metrics.get(f"serving.wall.{layer}_seconds")
            parts[layer] = counter.value if counter is not None else 0.0
        run = metrics.get("serving.wall.run_seconds")
        run_s = run.value if run is not None else 0.0
        covered = sum(parts.values())
        return {
            "run_s": run_s,
            "parts_s": parts,
            "unaccounted_s": run_s - covered,
            "coverage": covered / run_s if run_s > 0 else 0.0,
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
        self._fold()
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


def _summarize(responses: list[InferenceResponse], frozen: dict) -> dict:
    """The summary dict of :meth:`TahoeServer.summary` from a window of
    responses and the state :meth:`TahoeServer._freeze` captured."""
    latency = frozen["latency"]
    queue_wait = frozen["queue_wait"]
    counters = frozen["counters"]
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
        "rejected_queue_full": int(counters["rejected_queue_full"]),
        "rejected_deadline": int(counters["rejected_deadline"]),
        "rejected_invalid": int(counters["rejected_invalid"]),
        "engine_errors": int(counters["engine_errors"]),
        "deadline_misses": int(counters["deadline_misses"]),
        "batches": frozen["batches"],
        "target_batch": frozen["target_batch"],
        "n_engines": frozen["n_engines"],
        "backend": frozen["backend"],
        "time_domain": frozen["time_domain"],
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
        "slo": frozen["slo"],
        "batch_size_histogram": {
            str(k): int(v) for k, v in sorted(frozen["batch_sizes"].items())
        },
        "model": {
            "active": frozen["active"],
            "staged": frozen["staged"],
            "swaps": int(counters["swaps"]),
            "swap_events": frozen["swap_events"],
            "served_by_version": {
                k: int(v) for k, v in sorted(frozen["served_by_version"].items())
            },
        },
        "layout_cache": frozen["layout_cache"],
        "conversions": [
            {"cache_hit": cache_hit, "total_s": total_s}
            for cache_hit, total_s in frozen["conversions"]
        ],
    }

"""The :class:`TahoeServer` — micro-batching request scheduler.

Online serving traffic is the opposite of the paper's offline benchmarks:
requests arrive one sample at a time, and per-request GPU launches waste
the device (the launch-latency and bandwidth-utilisation terms of the §6
models dominate tiny batches).  The server therefore coalesces queued
requests into micro-batches.  A micro-batch closes when it holds
``max_batch`` samples, when the next queued request is of the other
kind (predict or explain), when its oldest request has waited
``max_wait``, or when a run drains the queue.

Batches dispatch round-robin onto a pool of engine replicas (the
multi-GPU deployment: one engine per device, all sharing a single
converted layout: the first replica converts, the rest adopt its layout).
Admission control is a bounded queue — arrivals beyond ``max_queue``
are rejected immediately with a structured error (backpressure), and
requests whose deadline has passed by dispatch time are rejected
gracefully instead of poisoning the batch.

The server is also the hot-swap site of the model store: it numbers the
versions of the one model it serves (:class:`ModelVersion`, labelled
``default@v<N>``).  :meth:`stage` builds a full replacement engine pool
for a new version *off* the hot path (conversion, or a packed artifact's
zero-conversion load), and :meth:`swap`/:meth:`schedule_swap` flip the
pool between micro-batches: dispatched batches complete on the old
engines, queued requests dispatch on the new ones, and nothing is
dropped.  The active and staged pools are the only owners of their
layouts, so a swapped-out version's layout is freed once its last
batch is done.

Everything runs on the simulated clock: arrivals are simulated seconds,
service times are the engines' simulated GPU seconds, so the whole
serving pipeline is deterministic and unit-testable.  The exception is
``backend="native"``: the pool is then
:class:`~repro.core.native.NativeEngine` replicas whose service times
are *measured wall seconds* (arrivals stay scripted): real throughput,
same scheduler.
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from repro.core import engine_class
from repro.core.config import TahoeConfig
from repro.formats.layout import ForestLayout
from repro.gpusim.specs import GPUSpec
from repro.obs.recorder import MAX_REPORT_TRACES, RunRecorder
from repro.obs.report import RunReport
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
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

__all__ = ["ModelVersion", "SchedulerConfig", "ServingResult", "TahoeServer"]

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

#: The name in every version label and swap event (one model per server).
_MODEL_NAME = "default"

#: The counter each kind of error response increments.
_REFUSAL_COUNTERS = {
    REJECTED_QUEUE_FULL: "serving.rejected.queue_full",
    REJECTED_DEADLINE: "serving.rejected.deadline",
    REJECTED_INVALID: "serving.rejected.invalid_request",
    ENGINE_ERROR: "serving.engine_errors",
}


@dataclass(frozen=True)
class SchedulerConfig:
    """Micro-batch *mechanism* knobs (how the scheduler forms batches).

    The server's one policy knob, its service-level objectives, is the
    ``slo=`` argument of :class:`TahoeServer` itself.

    Attributes:
        n_engines: engine replicas in the dispatch pool (simulated
            GPUs; batches go round-robin across them).
        max_batch: coalesced samples per dispatch: a queue holding this
            many flushes at once, and no micro-batch grows past it (a
            single larger request still runs as its own batch).
        max_wait: longest a request may sit queued waiting for
            coalescing (simulated seconds) before a forced flush.
        max_queue: bounded-queue admission limit, in requests; arrivals
            beyond it are rejected with ``queue_full`` (backpressure).
        request_tracing: record a per-stage
            :class:`~repro.serving.tracing.RequestTrace` on every
            response.
        backend: ``"tahoe"`` pools simulator engines matched to the
            model's format (the default); ``"native"`` pools
            :class:`~repro.core.native.NativeEngine` replicas executing
            on the host with wall-clock service times.
    """

    n_engines: int = 1
    max_batch: int = 1024
    max_wait: float = 2e-3
    max_queue: int = 4096
    request_tracing: bool = True
    backend: str = "tahoe"

    def __post_init__(self) -> None:
        if self.n_engines < 1:
            raise ValueError("n_engines must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.backend not in ("tahoe", "native"):
            raise ValueError("backend must be 'tahoe' or 'native'")


@dataclass(frozen=True)
class ModelVersion:
    """One numbered version of the model a :class:`TahoeServer` serves.

    Attributes:
        version: the server's version number, from 1 up.
        source: ``"object"`` (an in-process forest) or ``"artifact"``
            (a packed ``.tahoe`` layout).
        engine_kind: ``"tahoe"`` or ``"fil"``.
        forest: source forest (``None`` for a packed layout); the
            conversion pipeline runs when the version's pool is built.
        layout: packed, pre-converted layout (``None`` for a forest);
            building the pool from it is conversion-free.
    """

    version: int
    source: str
    engine_kind: str = "tahoe"
    forest: Forest | None = None
    layout: ForestLayout | None = None

    @property
    def label(self) -> str:
        """Identity on responses and swap events, e.g. ``default@v3``."""
        return f"{_MODEL_NAME}@v{self.version}"


class ServingResult:
    """Outcome of one :meth:`TahoeServer.run` call.

    Attributes:
        responses: one per request this run resolved, by request id.
            The result owns them: the server keeps no reference.
        summary: JSON-ready aggregate statistics (latency quantiles,
            batch-size histogram, rejection/deadline counters, the
            active version's conversion).
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


class TahoeServer:
    """Micro-batching front end over a pool of Tahoe engine replicas.

    Args:
        forest: trained forest to serve.
        spec: GPU model every replica runs on.
        scheduler: micro-batch mechanism knobs
            (:class:`SchedulerConfig`).
        config: engine configuration shared by every replica.
        hardware: pre-measured hardware parameters (measured once here
            otherwise and shared across the pool).
        recorder: telemetry sink shared by the server and every engine
            replica it builds, so each served micro-batch is recorded
            once (fresh one from ``config.obs`` otherwise).
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
        obs = self.engine_config.obs
        self.recorder = recorder if recorder is not None else RunRecorder(
            tracing=obs.tracing, metrics=obs.metrics, max_spans=obs.max_spans
        )
        # Model-store state: staged versions and their pools by version
        # number, pending swap times.
        self._n_versions = 0
        self._staged: dict[int, tuple[ModelVersion, list]] = {}
        self._pending_swaps: list[tuple[float, int]] = []
        self._served_by_version: TallyCounter = TallyCounter()
        self.swap_events: list[dict] = []
        version = self._new_version(forest, packed)
        self._active_version = version
        self.engines = self._build_engines(version)
        self.target_batch = self.plan_flush_point()
        self.recorder.metrics.gauge(
            "serving.target_batch", help="micro-batch flush point (max_batch)"
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
        self._batch_sizes: TallyCounter = TallyCounter()
        self._clock = 0.0
        # The only per-request history the cumulative summary needs.
        self._first_arrival = float("inf")
        self._last_arrival = self._last_completion = float("-inf")
        # Responses resolved since the last run(), which takes them all.
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
    def _build_engines(self, version: ModelVersion) -> list:
        """A full replica pool for ``version`` — the expensive part of a
        deployment, run off the hot path by :meth:`stage`.

        The first replica converts the forest (or adopts the packed
        layout); every other replica adopts the first one's layout, so
        a pool converts once and shares one layout object.
        """
        cls = engine_class(version.engine_kind, self.config.backend)
        shared = dict(
            config=self.engine_config, hardware=self.hardware, recorder=self.recorder
        )
        if version.layout is not None:
            first = cls.from_layout(version.layout, self.spec, **shared)
        else:
            first = cls(version.forest, self.spec, **shared)
        return [first] + [
            cls.from_layout(first.layout, self.spec, **shared)
            for _ in range(self.config.n_engines - 1)
        ]

    def _new_version(self, forest: Forest | None, packed) -> ModelVersion:
        """Number the next version of the served model."""
        if (forest is None) == (packed is None):
            raise ValueError("stage exactly one of forest= or packed=")
        self._n_versions += 1
        if packed is None:
            return ModelVersion(self._n_versions, "object", forest=forest)
        return ModelVersion(
            self._n_versions, "artifact", packed.engine_kind, layout=packed.layout
        )

    def stage(self, *, forest: Forest | None = None, packed=None) -> ModelVersion:
        """Number a new model version and build its engine pool now.

        All conversion work (or artifact adoption) happens here, off the
        request path; :meth:`swap` later is a pointer flip.
        """
        version = self._new_version(forest, packed)
        self._staged[version.version] = (version, self._build_engines(version))
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
        Returns the swap event (also in :attr:`swap_events`).
        """
        if version is None:
            if not self._staged:
                raise ValueError("no staged version to swap to")
            version = max(self._staged)
        staged = self._staged.pop(version, None)
        if staged is None:
            raise ValueError(f"version {version} is not staged")
        previous = self._active_version
        self._active_version, self.engines = staged  # queued work now lands here
        self._row_shape = self._model_row_shape()
        self.recorder.metrics.counter(
            "serving.model_swaps", help="hot swaps applied"
        ).inc()
        event = {
            "model": _MODEL_NAME,
            "from_version": previous.version,
            "to_version": self._active_version.version,
            "to_label": self._active_version.label,
            "source": self._active_version.source,
            "time": now,
            "from_label": previous.label,
        }
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
    # Flush point
    # ------------------------------------------------------------------
    def plan_flush_point(self) -> int:
        """The queued sample count that flushes a micro-batch:
        ``max_batch``.  Measured serving loads close every batch at
        ``max_wait`` long before a size plan binds (docs/architecture.md).
        """
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
        dispatch and handed out by the next :meth:`run`.
        """
        queue = self._queue
        arrival = request.arrival_time
        if queue and queue[0].arrival_time + self.config.max_wait <= arrival:
            self._flush_due(arrival)
        if arrival > self._clock:
            self._clock = arrival
        if arrival < self._first_arrival:
            self._first_arrival = arrival
        if arrival > self._last_arrival:
            self._last_arrival = arrival
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
        while self._queued_samples >= self.config.max_batch:
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

        ``workload`` is an iterable of requests, processed in arrival
        order.  With ``until=None`` the queue drains fully; otherwise the
        clock stops at ``until`` (due flushes applied, later arrivals
        held for the next call), so ``run(w, until=t)`` then ``run()``
        serves exactly what a one-shot ``run(w)`` would.
        Returns one response per request resolved since the previous
        call (successes and structured rejections alike, including
        requests queued by a direct :meth:`submit`, but not a refusal
        :meth:`submit` already returned); the result owns them.  Its
        ``summary`` is built when first read.
        """
        wall = self._wall
        t_start = time.perf_counter()
        dispatched = self._dispatch_seconds()
        requests, self._pending = self._pending, []
        if workload is not None:
            requests.extend(workload)
        requests.sort(key=attrgetter("arrival_time"))
        for req in requests:
            if until is not None and req.arrival_time > until:
                self._pending.append(req)
                continue
            refused = self.submit(req)
            if refused is not None:
                self._responses.append(refused)
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
        responses, self._responses = self._responses, []
        summary = partial(_summarize, self._freeze(), responses)
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
                    detail = f"deadline {req.deadline:.6f}s passed before dispatch at {now:.6f}s"
                    self._responses.append(self._refuse(req, now, REJECTED_DEADLINE, detail))
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
        explaining = live[0].kind == "explain"
        t1 = time.perf_counter()
        wall["assembly"] += t1 - t0
        try:
            result = engine.explain(X) if explaining else engine.predict(X)
        except Exception as exc:  # one failed batch never takes the run down
            wall["engine"] += time.perf_counter() - t1
            detail = f"{type(exc).__name__}: {exc}"
            self._responses.extend(
                self._refuse(req, now, ENGINE_ERROR, detail) for req in live
            )
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
        if completion > self._last_completion:
            self._last_completion = completion
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
            # Spans are immutable once recorded, and three of the five
            # stages are identical for every request in the micro-batch
            # (only queue_wait's start and response_fanout's outcome are
            # per-request) — share those span objects across the batch.
            assembly_span = StageSpan(
                "batch_assembly", now, start, {"batch_size": n_rows, "engine": g}
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
        """Answer ``req`` with a structured error at ``now``: counted, fed
        to the SLO monitor, and traced as the time it spent queued (zero
        when refused at admission) plus a zero-length fan-out span
        carrying the code.  The caller delivers it."""
        self.recorder.metrics.counter(_REFUSAL_COUNTERS[code]).inc()
        if self.slo is not None:
            self.slo.observe(now=now, ok=False)
        trace = None
        if self.config.request_tracing:
            trace = RequestTrace(
                trace_id=req.trace_id,
                request_id=req.request_id,
                spans=[
                    StageSpan("queue_wait", req.arrival_time, now),
                    StageSpan("response_fanout", now, now, {"rejected": code}),
                ],
            )
        return InferenceResponse(
            request_id=req.request_id,
            predictions=None,
            arrival_time=req.arrival_time,
            completion_time=now,
            error=ServingError(code, detail),
            trace=trace,
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

        With no argument, cumulative: read from counters, histograms and
        the first and last arrival and last completion times (the server
        keeps no responses).  An explicit window (e.g. one :meth:`run`
        call's responses) scopes the request counts and rates; counters
        and histograms read the cumulative metrics regardless.
        """
        return _summarize(self._freeze(), responses)

    def _freeze(self) -> dict:
        """Everything :func:`_summarize` reads besides a response window,
        copied now so later runs cannot change it: counter values,
        histogram copies, the cumulative window, and the scheduler and
        model state."""
        self._fold()
        metrics = self.recorder.metrics

        def count(name: str) -> int:  # registered only once one happened
            counter = metrics.get(name)
            return int(counter.value) if counter is not None else 0

        requests, completed = count("serving.requests_total"), count("serving.completed")
        return {
            "window": (
                requests,
                completed,
                count("serving.samples_total"),
                self._last_completion - self._first_arrival if completed else 0.0,
                self._last_arrival - self._first_arrival if requests else 0.0,
            ),
            "latency": metrics.histogram("serving.request_latency_seconds").copy(),
            "queue_wait": metrics.histogram("serving.queue_wait_seconds").copy(),
            # Final summary fields, in the summary's order.
            "head": {
                "rejected_queue_full": int(metrics.counter("serving.rejected.queue_full").value),
                "rejected_deadline": int(metrics.counter("serving.rejected.deadline").value),
                "rejected_invalid": count(_REFUSAL_COUNTERS[REJECTED_INVALID]),
                "engine_errors": count(_REFUSAL_COUNTERS[ENGINE_ERROR]),
                "deadline_misses": int(metrics.counter("serving.deadline_misses").value),
                "batches": metrics.histogram("serving.batch_size").count,
                "target_batch": self.target_batch,
                "n_engines": len(self.engines),
                "backend": self.config.backend,
                "time_domain": self.engines[0].time_domain,
            },
            "slo": self.slo.summary() if self.slo is not None else None,
            "batch_sizes": dict(self._batch_sizes),
            "model": {
                "active": self._active_version.label,
                "staged": sorted(self._staged),
                "swaps": int(metrics.counter("serving.model_swaps").value),
                "swap_events": list(self.swap_events),
                "served_by_version": {
                    k: int(v) for k, v in sorted(self._served_by_version.items())
                },
            },
            "conversion": {
                "source": self.engines[0].conversion_stats.source,
                "total_s": self.engines[0].conversion_stats.total,
            },
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
        :data:`~repro.obs.recorder.MAX_REPORT_TRACES` request traces
        ride along in ``meta["request_traces"]``; the SLO summary is
        folded in regardless.  Batch records, selector decisions and
        calibration drift come from the recorder the engine pool shares.
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
        return self.recorder.build_report(
            engine="tahoe-serving", gpu=self.spec.name, **meta
        )


def _summarize(frozen: dict, responses: list[InferenceResponse] | None = None) -> dict:
    """The summary dict of :meth:`TahoeServer.summary` from the state
    :meth:`TahoeServer._freeze` captured, over ``responses`` when given."""
    latency = frozen["latency"]
    queue_wait = frozen["queue_wait"]
    n_requests, n_completed, n_samples, makespan, offered_span = frozen["window"]
    if responses is not None:
        completed = [r for r in responses if r.ok]
        n_requests, n_completed = len(responses), len(completed)
        n_samples = int(sum(r.predictions.shape[0] for r in completed))
        makespan = offered_span = 0.0
        if completed:
            first = min(r.arrival_time for r in completed)
            makespan = max(r.completion_time for r in completed) - first
        if responses:
            arrivals = [r.arrival_time for r in responses]
            offered_span = max(arrivals) - min(arrivals)
    lat_p50, lat_p95, lat_p99 = latency.quantiles((0.5, 0.95, 0.99))
    wait_p50, wait_p95, wait_p99 = queue_wait.quantiles((0.5, 0.95, 0.99))
    return {
        "requests": n_requests,
        "completed": n_completed,
        **frozen["head"],
        # Arrivals that share one instant span no time and set no rate:
        # 0, not inf, so the summary stays valid JSON.
        "offered_qps": (n_requests / offered_span) if offered_span > 0 else 0.0,
        # With nothing completed the makespan is 0, and nothing was achieved.
        "achieved_qps": (n_completed / makespan) if makespan > 0 else 0.0,
        "achieved_samples_per_s": (n_samples / makespan) if makespan > 0 else 0.0,
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
        "model": frozen["model"],
        "conversion": frozen["conversion"],
    }

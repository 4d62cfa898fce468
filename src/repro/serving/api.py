"""The unified serving surface: one protocol for servers, one for workloads.

PR 3 unified the *engines* behind one keyword-only protocol; this module
does the same for the tier above them.  Anything that serves requests —
the single-process :class:`~repro.serving.server.TahoeServer` and the
fleet-scale :class:`~repro.serving.fleet.router.TahoeRouter` alike —
implements :class:`Server`:

* ``submit(request)`` — admit one request at its arrival time.  Returns
  the structured rejection response when admission fails, ``None`` when
  the request is queued (its response is produced later by ``run``).
* ``run(workload, *, until=None, report=False)`` — serve a workload (an
  iterable of requests, or a :class:`Workload`) and advance the
  simulated clock: to ``until``, or to full drain when ``until`` is
  ``None``.  Returns a ``ServingResult`` covering the responses this
  call produced.
* ``summary()`` — cumulative JSON-ready statistics.
* ``metrics()`` — the live :class:`~repro.obs.metrics.MetricsRegistry`.

Workloads are factored the same way: a :class:`Workload` produces
timestamped requests from ``arrivals(rng, horizon)``, so benches, tests
and the CLI can swap ``--traffic poisson|burst|user-population`` without
caring which generator is behind the name (:data:`~repro.serving.workload.WORKLOADS`
is the registry).

Server configuration is split along the same seam the router needed:
:class:`SchedulerConfig` owns the *mechanism* (flush, queue, deadline
knobs — how a micro-batch forms), :class:`PolicyConfig` owns the
*policy* (SLO objectives, fleet admission, autoscaling — what service
the tier promises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "AdmissionConfig",
    "AutoscaleConfig",
    "PolicyConfig",
    "SchedulerConfig",
    "Server",
    "Workload",
    "materialize_workload",
]


@runtime_checkable
class Server(Protocol):
    """Anything that serves timestamped inference requests.

    ``TahoeServer`` (one scheduler, one engine pool) and ``TahoeRouter``
    (N sharded servers behind load-aware dispatch) both conform, so
    workloads, benches and the CLI drive either interchangeably.
    """

    def submit(self, request): ...

    def run(self, workload=None, *, until=None, report=False): ...

    def summary(self) -> dict: ...

    def metrics(self): ...


@runtime_checkable
class Workload(Protocol):
    """A request-arrival generator.

    ``arrivals(rng, horizon)`` returns the full list of
    :class:`~repro.serving.request.InferenceRequest` objects arriving in
    ``[0, horizon)`` simulated seconds, in arrival order, drawn from
    ``rng`` (a :class:`numpy.random.Generator` — workloads are fully
    deterministic given one).
    """

    def arrivals(self, rng: np.random.Generator, horizon: float) -> list: ...


def materialize_workload(workload, until: float | None) -> list:
    """Turn a workload — ``None``, an iterable of requests, or a
    :class:`Workload` — into a concrete request list.

    A :class:`Workload` is materialised over its own ``duration``
    attribute as the horizon (falling back to ``until`` when it has
    none), seeded from its ``seed`` attribute (default 0), so servers
    and routers resolve workloads identically.  ``until`` never
    *truncates* generation — it only gates admission — so stepping a
    server with ``run(w, until=t)`` then ``run()`` serves exactly the
    requests a one-shot ``run(w)`` would.
    """
    if workload is None:
        return []
    if hasattr(workload, "arrivals"):
        horizon = getattr(workload, "duration", None)
        if horizon is None:
            horizon = until
        if horizon is None:
            raise ValueError("a Workload without a duration needs an explicit until=")
        rng = np.random.default_rng(getattr(workload, "seed", 0))
        return list(workload.arrivals(rng, float(horizon)))
    return list(workload)


@dataclass(frozen=True)
class SchedulerConfig:
    """Micro-batch *mechanism* knobs (how the scheduler forms batches).

    Attributes:
        n_engines: engine replicas in the dispatch pool (simulated
            GPUs; batches go round-robin across them).
        max_batch: hard ceiling on coalesced samples per dispatch.
        max_wait: longest a request may sit queued waiting for
            coalescing (simulated seconds) before a forced flush.
        max_queue: bounded-queue admission limit, in requests; arrivals
            beyond it are rejected with ``queue_full`` (backpressure).
        target_batch: explicit flush point; ``None`` lets the §6
            performance models pick it (the knee of predicted
            per-sample time).
        knee_tolerance: how close to the best predicted per-sample time
            the chosen flush point must be (0.05 = within 5 %).
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
    target_batch: int | None = None
    knee_tolerance: float = 0.05
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
class AdmissionConfig:
    """Per-shard admission control for the fleet router.

    A request is rejected with ``shard_overloaded`` when even the
    least-loaded eligible shard is past these limits — structured
    backpressure one tier above the per-server bounded queue.

    Attributes:
        max_outstanding_samples: ceiling on a shard's outstanding work
            (queued + in-flight samples the router has sent it).
        max_queue_depth: ceiling on a shard's queued *requests* at
            routing time (``None`` disables the depth check).
    """

    max_outstanding_samples: int = 4096
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_outstanding_samples < 1:
            raise ValueError("max_outstanding_samples must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


@dataclass(frozen=True)
class AutoscaleConfig:
    """Replica-autoscaler objectives and hysteresis.

    Scale-up and scale-down thresholds are deliberately separate (the
    hysteresis band): a fleet whose rolling p95 sits between them takes
    no action, which is what prevents flapping.  ``cooldown`` additionally
    spaces consecutive actions so a scale-up's effect is observed before
    the next decision.

    Attributes:
        min_shards / max_shards: replica-count bounds.
        scale_up_latency_p95: rolling-window p95 latency (seconds) above
            which a replica is added.
        scale_down_latency_p95: p95 below which a replica is drained;
            defaults to ``scale_up_latency_p95 / 4``.
        scale_up_queue_depth: mean per-shard queued requests above which
            a replica is added (``None`` disables the queue objective).
        scale_down_queue_depth: defaults to ``scale_up_queue_depth / 4``.
        window: rolling-window length, simulated seconds.
        eval_interval: decision cadence; ``None`` derives ``window / 4``.
        cooldown: minimum simulated seconds between actions.
        min_requests: minimum responses in the window for a decision
            (sparse windows are statistically meaningless).
    """

    min_shards: int = 1
    max_shards: int = 8
    scale_up_latency_p95: float | None = None
    scale_down_latency_p95: float | None = None
    scale_up_queue_depth: float | None = None
    scale_down_queue_depth: float | None = None
    window: float = 0.05
    eval_interval: float | None = None
    cooldown: float = 0.1
    min_requests: int = 20

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.scale_up_latency_p95 is None and self.scale_up_queue_depth is None:
            raise ValueError(
                "autoscaling needs at least one scale-up objective "
                "(scale_up_latency_p95 or scale_up_queue_depth)"
            )

    @property
    def down_latency(self) -> float | None:
        if self.scale_down_latency_p95 is not None:
            return self.scale_down_latency_p95
        if self.scale_up_latency_p95 is not None:
            return self.scale_up_latency_p95 / 4.0
        return None

    @property
    def down_queue_depth(self) -> float | None:
        if self.scale_down_queue_depth is not None:
            return self.scale_down_queue_depth
        if self.scale_up_queue_depth is not None:
            return self.scale_up_queue_depth / 4.0
        return None


@dataclass(frozen=True)
class PolicyConfig:
    """Service *policy* knobs (what the serving tier promises).

    Attributes:
        slo: service-level objectives — an
            :class:`~repro.serving.slo.SLOConfig` (a private monitor is
            built) or a ready :class:`~repro.serving.slo.SLOMonitor`;
            ``None`` disables SLO evaluation.
        admission: fleet-level per-shard admission control
            (:class:`AdmissionConfig`); ``None`` admits whenever the
            shard's own bounded queue does.
        autoscale: replica autoscaling (:class:`AutoscaleConfig`);
            ``None`` keeps the shard count fixed.
    """

    slo: object | None = None
    admission: AdmissionConfig | None = None
    autoscale: AutoscaleConfig | None = None

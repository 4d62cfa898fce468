"""Serving: from one micro-batching server to a sharded fleet.

The ROADMAP's north star is request-level traffic, not offline
``predict(X)`` sweeps.  This package adds the layer PACSET and the
decision-forest-serving literature argue matters most in deployment —
what happens *around* the kernel:

* :class:`~repro.serving.api.Server` — the unified protocol (keyword
  -only ``submit`` / ``run`` / ``summary`` / ``metrics``) implemented
  by both tiers, so workloads, benches and the CLI drive one server or
  a whole fleet interchangeably.  Config splits along mechanism vs
  policy: :class:`~repro.serving.api.SchedulerConfig` (flush/queue/
  deadline knobs) and :class:`~repro.serving.api.PolicyConfig` (SLO,
  admission, autoscale).
* :class:`~repro.serving.server.TahoeServer` — coalesces single-sample
  requests into micro-batches sized by the §6 performance models,
  dispatches round-robin onto a pool of engine replicas (one per
  simulated GPU, sharing a single converted layout), and applies
  admission control: bounded queue with backpressure, per-request
  deadlines, structured rejections.
* :class:`~repro.serving.fleet.TahoeRouter` — the fleet tier: N server
  shards behind least-outstanding-work dispatch, per-model routing,
  forest sharding with router-side grouped reduction, per-shard
  admission control (``shard_overloaded``), and hysteresis-based
  replica autoscaling with conversion-free scale-up.
* :class:`~repro.serving.api.Workload` — the traffic protocol
  (``arrivals(rng, horizon)``); :data:`~repro.serving.workload.WORKLOADS`
  registers ``poisson``, ``burst`` and the user-population model
  (:class:`~repro.serving.population.UserPopulationWorkload`: Zipf
  users, diurnal + flash-crowd session intensities).
* Hot model swap via :mod:`repro.modelstore`: the server registers every
  model it serves in a :class:`~repro.modelstore.registry.ModelRegistry`,
  stages replacement engine pools off the hot path (conversion-free from
  packed ``.tahoe`` artifacts), and flips versions between micro-batches
  without dropping a request.

Everything runs on the simulated clock, so serving behaviour — latency
quantiles, deadline misses, backpressure, autoscaling — is
deterministic and unit-testable.
"""

from repro.serving.api import (
    AdmissionConfig,
    AutoscaleConfig,
    PolicyConfig,
    SchedulerConfig,
    Server,
    Workload,
)
from repro.serving.population import UserPopulationWorkload
from repro.serving.request import (
    ENGINE_ERROR,
    REJECTED_DEADLINE,
    REJECTED_INVALID,
    REJECTED_QUEUE_FULL,
    REJECTED_SHARD_OVERLOADED,
    InferenceRequest,
    InferenceResponse,
    ServingError,
)
from repro.serving.server import ServingResult, TahoeServer
from repro.serving.slo import SLOConfig, SLOMonitor, window_quantile
from repro.serving.tracing import RequestTrace, StageSpan
from repro.serving.workload import (
    WORKLOADS,
    BurstWorkload,
    PoissonWorkload,
    burst_workload,
    make_workload,
    poisson_workload,
)

__all__ = [
    "ENGINE_ERROR",
    "REJECTED_DEADLINE",
    "REJECTED_INVALID",
    "REJECTED_QUEUE_FULL",
    "REJECTED_SHARD_OVERLOADED",
    "WORKLOADS",
    "AdmissionConfig",
    "AutoscaleConfig",
    "BurstWorkload",
    "InferenceRequest",
    "InferenceResponse",
    "PoissonWorkload",
    "PolicyConfig",
    "RequestTrace",
    "SLOConfig",
    "SLOMonitor",
    "SchedulerConfig",
    "Server",
    "ServingError",
    "ServingResult",
    "StageSpan",
    "TahoeServer",
    "UserPopulationWorkload",
    "Workload",
    "burst_workload",
    "make_workload",
    "poisson_workload",
    "window_quantile",
]

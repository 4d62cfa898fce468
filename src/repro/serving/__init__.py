"""Serving: a micro-batching request server over the Tahoe engines.

Tahoe's kernels run on batches (§7); this package builds those batches
from request-level traffic and adds the layer PACSET and the
decision-forest-serving literature argue matters most in deployment —
what happens *around* the kernel:

* :class:`~repro.serving.server.TahoeServer` — coalesces single-sample
  requests into micro-batches sized by the §6 performance models,
  dispatches round-robin onto a pool of engine replicas (one per
  simulated GPU, sharing a single converted layout), and applies
  admission control: bounded queue with backpressure, per-request
  deadlines, structured rejections.  Its mechanism knobs live in
  :class:`~repro.serving.server.SchedulerConfig` (flush/queue/deadline);
  its service-level objectives are the ``slo=`` argument
  (:class:`~repro.serving.slo.SLOConfig`).
* Traffic is a list of :class:`~repro.serving.request.InferenceRequest`;
  :func:`~repro.serving.workload.poisson_workload` builds one (flat
  Poisson arrivals, or with ``burst_factor > 1`` an overload burst).
* Hot model swap via :mod:`repro.modelstore`: the server numbers the
  versions of the model it serves
  (:class:`~repro.serving.server.ModelVersion`), stages replacement
  engine pools off the hot path (conversion-free from packed ``.tahoe``
  artifacts), and flips versions between micro-batches without dropping
  a request.

Everything runs on the simulated clock, so serving behaviour — latency
quantiles, deadline misses, backpressure, SLO breaches — is
deterministic and unit-testable.
"""

from repro.serving.request import (
    ENGINE_ERROR,
    REJECTED_DEADLINE,
    REJECTED_INVALID,
    REJECTED_QUEUE_FULL,
    InferenceRequest,
    InferenceResponse,
    ServingError,
)
from repro.serving.server import ModelVersion, SchedulerConfig, ServingResult, TahoeServer
from repro.serving.slo import SLOConfig, SLOMonitor
from repro.serving.tracing import RequestTrace, StageSpan
from repro.serving.workload import poisson_workload

__all__ = [
    "ENGINE_ERROR",
    "REJECTED_DEADLINE",
    "REJECTED_INVALID",
    "REJECTED_QUEUE_FULL",
    "InferenceRequest",
    "InferenceResponse",
    "ModelVersion",
    "RequestTrace",
    "SLOConfig",
    "SLOMonitor",
    "SchedulerConfig",
    "ServingError",
    "ServingResult",
    "StageSpan",
    "TahoeServer",
    "poisson_workload",
]

"""The serving configuration and workload surface.

:class:`SchedulerConfig` holds the micro-batch *mechanism* of
:class:`~repro.serving.server.TahoeServer` — flush, queue, deadline and
backend knobs, i.e. how a micro-batch forms.  The server's one policy
knob, its service-level objectives, is the ``slo=`` argument of
``TahoeServer`` itself.

Workloads are factored behind one protocol: a :class:`Workload`
produces timestamped requests from ``arrivals(rng, horizon)``, so
benches, tests and the CLI can swap ``--traffic
poisson|burst|user-population`` without caring which generator is
behind the name (:data:`~repro.serving.workload.WORKLOADS` is the
registry).  :func:`materialize_workload` turns any of them into the
request list ``TahoeServer.run`` serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "SchedulerConfig",
    "Workload",
    "materialize_workload",
]


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
    none), seeded from its ``seed`` attribute (default 0), so every
    caller resolves a workload identically.  ``until`` never
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

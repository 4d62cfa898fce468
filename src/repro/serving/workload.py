"""Synthetic open-loop serving workloads.

Open-loop means arrivals do not wait for responses: a Poisson process at
a target QPS keeps emitting requests whether or not the server keeps up,
which is what exposes queueing collapse, deadline misses and the value
of backpressure (closed-loop load generators famously hide all three).

Each generator returns a plain request list that
:meth:`~repro.serving.server.TahoeServer.run` serves, deterministic
given its ``seed``.  The user-population model
(:class:`~repro.serving.population.UserPopulationWorkload`) is sampled
through its ``arrivals(rng, horizon)``.
"""

from __future__ import annotations

import numpy as np

from repro.serving.request import InferenceRequest

__all__ = ["burst_workload", "poisson_workload"]


def poisson_workload(
    X_pool: np.ndarray,
    *,
    qps: float,
    duration: float,
    seed: int = 0,
    max_request_samples: int = 1,
    deadline: float | None = None,
    start_time: float = 0.0,
    start_id: int = 0,
) -> list[InferenceRequest]:
    """Poisson arrivals at ``qps`` requests/second for ``duration`` seconds.

    Args:
        X_pool: sample matrix to draw request payloads from (rows are
            sampled with replacement).
        qps: mean request arrival rate (simulated requests per simulated
            second).
        duration: length of the arrival window (simulated seconds).
        seed: RNG seed — workloads are fully deterministic given it.
        max_request_samples: request sizes are uniform in
            ``[1, max_request_samples]`` (1 = pure single-sample traffic).
        deadline: per-request latency budget in seconds (absolute
            deadline = arrival + budget); ``None`` disables deadlines.
        start_time: offset added to every arrival — lets phases compose
            (see :func:`burst_workload`).
        start_id: first request id (ids must stay unique across phases).
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if max_request_samples < 1:
        raise ValueError("max_request_samples must be >= 1")
    rng = np.random.default_rng(seed)
    requests: list[InferenceRequest] = []
    t = 0.0
    rid = start_id
    while True:
        t += rng.exponential(1.0 / qps)
        if t >= duration:
            break
        k = (
            1
            if max_request_samples == 1
            else int(rng.integers(1, max_request_samples + 1))
        )
        rows = rng.integers(0, X_pool.shape[0], size=k)
        arrival = start_time + t
        requests.append(
            InferenceRequest(
                request_id=rid,
                X=X_pool[rows],
                arrival_time=arrival,
                deadline=(arrival + deadline) if deadline is not None else None,
            )
        )
        rid += 1
    return requests


def burst_workload(
    X_pool: np.ndarray,
    *,
    qps: float,
    duration: float,
    burst_factor: float = 10.0,
    burst_fraction: float = 0.2,
    seed: int = 0,
    max_request_samples: int = 1,
    deadline: float | None = None,
) -> list[InferenceRequest]:
    """Steady Poisson traffic with an overload burst in the middle.

    The middle ``burst_fraction`` of the window runs at
    ``qps * burst_factor`` — a deterministic flash crowd that drives the
    queue past its steady-state operating point, which is what the SLO
    monitor exists to catch.  Arrival order and request-id order agree.

    Args:
        qps: steady-phase arrival rate; the burst multiplies it.
        burst_factor: overload multiplier (>= 1).
        burst_fraction: fraction of ``duration`` the burst occupies,
            centred in the window (0 disables the burst).
    """
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    if not 0.0 <= burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in [0, 1)")
    if burst_fraction == 0.0 or burst_factor == 1.0:
        return poisson_workload(
            X_pool,
            qps=qps,
            duration=duration,
            seed=seed,
            max_request_samples=max_request_samples,
            deadline=deadline,
        )
    burst_len = duration * burst_fraction
    pre_len = (duration - burst_len) / 2.0
    phases = (
        (0.0, pre_len, qps),
        (pre_len, burst_len, qps * burst_factor),
        (pre_len + burst_len, pre_len, qps),
    )
    requests: list[InferenceRequest] = []
    for i, (start, length, rate) in enumerate(phases):
        requests.extend(
            poisson_workload(
                X_pool,
                qps=rate,
                duration=length,
                seed=seed + i,
                max_request_samples=max_request_samples,
                deadline=deadline,
                start_time=start,
                start_id=len(requests),
            )
        )
    return requests

"""Synthetic open-loop serving traffic.

Open-loop means arrivals do not wait for responses: a Poisson process at
a target QPS keeps emitting requests whether or not the server keeps up,
which is what exposes queueing collapse, deadline misses and the value
of backpressure (closed-loop load generators famously hide all three).

:func:`poisson_workload` is the one generator: flat Poisson traffic, or
with ``burst_factor > 1`` an overload burst in the middle of the
window.  It returns a plain request list that
:meth:`~repro.serving.server.TahoeServer.run` serves, deterministic
given its ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.serving.request import InferenceRequest

__all__ = ["poisson_workload"]


def poisson_workload(
    X_pool: np.ndarray,
    *,
    qps: float,
    duration: float,
    seed: int = 0,
    max_request_samples: int = 1,
    deadline: float | None = None,
    burst_factor: float = 1.0,
    burst_fraction: float = 0.2,
) -> list[InferenceRequest]:
    """Poisson arrivals at ``qps`` requests/second for ``duration`` seconds.

    With ``burst_factor > 1`` the middle ``burst_fraction`` of the window
    runs at ``qps * burst_factor`` — a deterministic flash crowd that
    drives the queue past its steady-state operating point, which is
    what the SLO monitor exists to catch.  The three phases (steady,
    burst, steady) draw from seeds ``seed``, ``seed + 1`` and
    ``seed + 2``.  Arrival order and request-id order agree.

    Args:
        X_pool: sample matrix to draw request payloads from (rows are
            sampled with replacement).
        qps: mean request arrival rate (simulated requests per simulated
            second); the burst multiplies it.
        duration: length of the arrival window (simulated seconds).
        seed: RNG seed — workloads are fully deterministic given it.
        max_request_samples: request sizes are uniform in
            ``[1, max_request_samples]`` (1 = pure single-sample traffic).
        deadline: per-request latency budget in seconds (absolute
            deadline = arrival + budget); ``None`` disables deadlines.
        burst_factor: overload multiplier (>= 1; 1 is flat traffic).
        burst_fraction: fraction of ``duration`` the burst occupies,
            centred in the window (0 disables the burst).
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if max_request_samples < 1:
        raise ValueError("max_request_samples must be >= 1")
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive")
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    if not 0.0 <= burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in [0, 1)")
    if burst_factor == 1.0 or burst_fraction == 0.0:
        phases = [(0.0, duration, qps)]
    else:
        burst_len = duration * burst_fraction
        pre_len = (duration - burst_len) / 2.0
        phases = [
            (0.0, pre_len, qps),
            (pre_len, burst_len, qps * burst_factor),
            (pre_len + burst_len, pre_len, qps),
        ]
    requests: list[InferenceRequest] = []
    for i, (start, length, rate) in enumerate(phases):
        rng = np.random.default_rng(seed + i)
        t = rng.exponential(1.0 / rate)
        while t < length:
            k = (
                1
                if max_request_samples == 1
                else int(rng.integers(1, max_request_samples + 1))
            )
            rows = rng.integers(0, X_pool.shape[0], size=k)
            arrival = start + t
            requests.append(
                InferenceRequest(
                    request_id=len(requests),
                    X=X_pool[rows],
                    arrival_time=arrival,
                    deadline=(arrival + deadline) if deadline is not None else None,
                )
            )
            t += rng.exponential(1.0 / rate)
    return requests

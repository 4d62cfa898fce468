"""Performance model for the native CPU backend.

The §6 analytic models predict *simulated GPU seconds* for the four
traversal strategies.  The native backend
(:class:`~repro.core.native.NativeEngine`) executes on the host CPU in
*wall-clock* seconds, so it gets its own, much simpler cost model: a
batch costs a fixed per-dispatch overhead (input checks, finalisation,
batch recording, result assembly) plus a near-constant cost per row.
Both coefficients are *fitted from timed probes* of the engine's
dispatch path on the actual flattened forest — the native analogue of
the §6 microbenchmarks — rather than assumed.

One fit serves every native decision.  The serving layer's flush point
is the knee of the per-sample curve it predicts
(:meth:`~repro.serving.server.TahoeServer.plan_flush_point`), and
:func:`rank_hardware_targets` gives the selector a second hardware
target to rank: the best simulated-GPU strategy (predicted GPU seconds)
next to the native CPU (predicted wall seconds).  Each prediction is in
its *own* target's execution-time domain — the ranking answers "which
target would finish this batch first", exactly as the §6 ranking answers
it across strategies.  The native engine evaluates the ranking only
when a run report is requested; the chosen target's residual (predicted
vs measured wall time for native runs) then feeds the same
:class:`~repro.obs.drift.CalibrationTracker` the GPU models use, so
drift in the native calibration is caught by the existing machinery.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HardwareTarget",
    "NativeCostModel",
    "calibrate_native_model",
    "rank_hardware_targets",
]


@dataclass
class HardwareTarget:
    """One ranked execution target (duck-typed like ``StrategyChoice``).

    Exposes ``name`` / ``predicted_time`` / ``to_record()`` so
    :meth:`~repro.obs.recorder.RunRecorder.record_decision` accepts a
    target ranking exactly as it accepts a strategy ranking.
    """

    name: str
    predicted_time: float
    note: str = ""

    def to_record(self) -> dict:
        t = self.predicted_time
        applicable = t != float("inf")
        return {
            "strategy": self.name,
            "predicted_time": float(t) if applicable else None,
            "applicable": applicable,
            "note": self.note,
        }


#: Probe batch sizes of the fit, in rows: from all fixed cost to mostly
#: per-row cost.  Larger probes cost 3-4x more and planned no steadier
#: flush points (docs/performance.md).
PROBE_SIZES = (1, 32, 128)
#: Timed calls per probe size; the fit reads their median.
PROBE_REPEATS = 3
PROBE_SEED = 7


@dataclass(frozen=True)
class NativeCostModel:
    """Fitted wall-clock cost of one native dispatch on one forest.

    Attributes:
        t_fixed: per-dispatch overhead, seconds.
        t_per_row: seconds per row (one walk through every tree).
        kernel: which kernel was fitted (``numpy`` or ``numba``) —
            predictions only transfer within one kernel.
    """

    t_fixed: float
    t_per_row: float
    kernel: str

    def predict_time(self, n_samples: int) -> float:
        """Predicted wall seconds for one dispatch of ``n_samples`` rows."""
        return self.t_fixed + self.t_per_row * n_samples


def calibrate_native_model(
    run_batch: Callable[[np.ndarray], object], *, n_attributes: int, kernel: str
) -> NativeCostModel:
    """Fit the two coefficients from timed probe batches.

    Times ``run_batch`` (the engine's dispatch path) :data:`PROBE_REPEATS`
    times on a synthetic batch of each :data:`PROBE_SIZES` size and fits
    ``t = t_fixed + t_per_row * rows`` to the per-size medians (which one
    slow call cannot move) by least squares, each coefficient floored at
    zero.
    """
    rng = np.random.default_rng(PROBE_SEED)
    X = rng.standard_normal((max(PROBE_SIZES), max(1, n_attributes))).astype(np.float32)
    medians = []
    for size in PROBE_SIZES:
        taken = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            run_batch(X[:size])
            taken.append(time.perf_counter() - t0)
        medians.append(statistics.median(taken))
    # Pure Python on purpose: numpy's least squares would initialise
    # LAPACK, about 1 MB of resident memory, in every process that fits.
    slope, fixed = statistics.linear_regression(PROBE_SIZES, medians)
    return NativeCostModel(t_fixed=max(0.0, fixed), t_per_row=max(0.0, slope), kernel=kernel)


def rank_hardware_targets(
    model: NativeCostModel, layout, n_batch: int, spec, hw
) -> list[HardwareTarget]:
    """Rank native CPU against the best simulated-GPU strategy.

    Returns targets sorted by predicted time (each in its own target's
    execution domain).  The native target is always first *or* second —
    there are exactly two hardware candidates.
    """
    from repro.perfmodel.selector import rank_strategies

    native = HardwareTarget(
        name="native_cpu",
        predicted_time=model.predict_time(n_batch),
        note=f"fitted {model.kernel} dispatch (wall clock)",
    )
    best_gpu = rank_strategies(layout, n_batch, spec, hw)[0]
    gpu = HardwareTarget(
        name=f"gpusim_{best_gpu.name}",
        predicted_time=best_gpu.predicted_time,
        note=f"§6 model on {spec.name} (simulated clock)",
    )
    targets = [native, gpu]
    targets.sort(key=lambda t: t.predicted_time)
    return targets

"""Performance model for the native CPU backend.

The §6 analytic models predict *simulated GPU seconds* for the four
traversal strategies.  The native backend
(:class:`~repro.core.native.NativeEngine`) executes on the host CPU in
*wall-clock* seconds, so it gets its own, much simpler cost model: batch
traversal work is ``n_samples * n_trees * depth`` lane-level steps, each
costing a near-constant gather/compare, plus a fixed per-call overhead
(kernel dispatch, the final reduction).  Both coefficients are
*calibrated from timed probes* on the actual flattened forest — the
native analogue of the §6 microbenchmarks — rather than assumed.

:func:`rank_hardware_targets` then gives the selector a second hardware
target to rank: the best simulated-GPU strategy (predicted GPU seconds)
next to the native CPU (predicted wall seconds).  Each prediction is in
its *own* target's execution-time domain — the ranking answers "which
target would finish this batch first", exactly as the §6 ranking answers
it across strategies.  The native engine evaluates it only when a run
report is requested; the chosen target's residual (predicted vs
measured wall time for native runs) then feeds the same
:class:`~repro.obs.drift.CalibrationTracker` the GPU models use, so
drift in the native calibration is caught by the existing machinery.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class NativeCostModel:
    """Calibrated wall-clock cost of the native traversal kernel.

    Attributes:
        t_lane_step: seconds per (sample, tree, level) lane step.
        t_fixed: per-call overhead (dispatch + reduction), seconds.
        kernel: which kernel was calibrated (``numpy`` or ``numba``) —
            predictions only transfer within one kernel.
    """

    t_lane_step: float
    t_fixed: float
    kernel: str

    def predict_time(self, n_samples: int, n_trees: int, depth: float) -> float:
        """Predicted wall seconds for one batch on this kernel."""
        lanes = float(n_samples) * float(n_trees) * max(1.0, float(depth))
        return self.t_fixed + self.t_lane_step * lanes


def calibrate_native_model(
    run_batch: Callable[[np.ndarray], object],
    *,
    n_trees: int,
    depth: float,
    n_attributes: int,
    kernel: str,
    probe_sizes: tuple[int, int] = (16, 256),
    repeats: int = 3,
    seed: int = 7,
) -> NativeCostModel:
    """Fit the two coefficients from timed probe batches.

    Runs ``run_batch`` (the engine's kernel dispatch) on two synthetic
    probe batches, keeps the best of ``repeats`` timings per size (the
    usual minimum-of-n wall-clock discipline), and solves the two-point
    linear system ``t = t_fixed + t_lane_step * lanes``.
    """
    lo, hi = probe_sizes
    if not (1 <= lo < hi):
        raise ValueError("probe_sizes must be two increasing positive ints")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((hi, max(1, n_attributes))).astype(np.float32)
    times: dict[int, float] = {}
    for size in (lo, hi):
        best = float("inf")
        probe = X[:size]
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_batch(probe)
            best = min(best, time.perf_counter() - t0)
        times[size] = best
    per_sample_lanes = float(n_trees) * max(1.0, float(depth))
    lanes_lo, lanes_hi = lo * per_sample_lanes, hi * per_sample_lanes
    slope = max(0.0, (times[hi] - times[lo]) / (lanes_hi - lanes_lo))
    fixed = max(0.0, times[lo] - slope * lanes_lo)
    return NativeCostModel(t_lane_step=slope, t_fixed=fixed, kernel=kernel)


def rank_hardware_targets(
    model: NativeCostModel,
    layout,
    n_batch: int,
    spec,
    hw,
    *,
    depth: float | None = None,
) -> list[HardwareTarget]:
    """Rank native CPU against the best simulated-GPU strategy.

    Returns targets sorted by predicted time (each in its own target's
    execution domain).  The native target is always first *or* second —
    there are exactly two hardware candidates.  ``depth`` lets the
    caller supply a precomputed mean tree depth (recomputing it walks
    every tree).
    """
    from repro.perfmodel.selector import rank_strategies

    forest = layout.forest
    if depth is None:
        depth = forest.mean_depth()
    native = HardwareTarget(
        name="native_cpu",
        predicted_time=model.predict_time(n_batch, forest.n_trees, depth),
        note=f"calibrated {model.kernel} kernel (wall clock)",
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

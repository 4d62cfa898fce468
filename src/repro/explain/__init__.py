"""``repro.explain`` — exact SHAP attributions as a first-class workload.

GPUTreeShap showed that exact TreeSHAP, long considered CPU-bound,
becomes a bandwidth/compute problem a GPU eats once it is decomposed
over root→leaf paths.  This package brings that workload into the Tahoe
reproduction: :mod:`~repro.explain.paths` enumerates a converted
layout's paths into flat arrays, :mod:`~repro.explain.kernel` runs the
EXTEND/UNWIND recurrences (tabulated per path and one-fraction pattern
for shallow paths, over sample lanes for deep ones), and the strategy layer
(:mod:`repro.strategies.explain`) prices the same kernel under two
device placements so the §6 selector can rank them per batch.  Every
engine (:class:`~repro.core.engine.TahoeEngine`,
:class:`~repro.core.fil.FILEngine`,
:class:`~repro.core.native.NativeEngine`) grows an ``explain`` method
returning an :class:`ExplainResult`.

Attributions are in *raw margin* space (pre sigmoid/softmax): for every
sample, ``base_values + attributions.sum(axis=feature)`` reconstructs
the engine's pre-link prediction exactly — the SHAP efficiency axiom,
pinned by the test suite for every engine path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import TIME_DOMAIN_SIMULATED
from repro.explain.kernel import compute_shap, shap_check_efficiency
from repro.explain.paths import PathSet, build_path_set, path_set_for_layout
from repro.explain.reference import brute_force_shapley

__all__ = [
    "ExplainResult",
    "PathSet",
    "build_path_set",
    "brute_force_shapley",
    "compute_shap",
    "path_set_for_layout",
    "shap_check_efficiency",
]


@dataclass
class ExplainResult:
    """Outcome of one ``Engine.explain`` call.

    Attributes:
        attributions: per-feature SHAP values in margin space —
            ``(n, n_features)`` for single-output forests,
            ``(n, n_features, n_classes)`` for multiclass.
        base_values: expected margin with no features known — a float
            for single-output, ``(n_classes,)`` for multiclass.
        predictions: reconstructed raw margins (pre-link), same leading
            shape as a predict call's margins.
        total_time: seconds over all batches, in ``time_domain`` units.
        batches: per-batch strategy results
            (:class:`~repro.strategies.explain.ExplainStrategyResult`).
        strategies_used: strategy name per batch.
        report: the run's :class:`~repro.obs.report.RunReport` (only
            when ``explain(..., report=True)``).
        time_domain: ``"simulated"`` for the GPU-simulator engines,
            ``"wall"`` for the native backend.
    """

    attributions: np.ndarray
    base_values: np.ndarray | float
    predictions: np.ndarray
    total_time: float
    batches: list = field(default_factory=list)
    strategies_used: list[str] = field(default_factory=list)
    report: object | None = None
    time_domain: str = TIME_DOMAIN_SIMULATED

    @property
    def throughput(self) -> float:
        """Samples explained per second on this result's clock."""
        n = self.attributions.shape[0]
        return n / self.total_time if self.total_time > 0 else float("inf")


def squeeze_single_class(
    phi: np.ndarray, base: np.ndarray, margins: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray]:
    """Drop the trailing class axis for single-output forests."""
    if phi.shape[-1] == 1:
        return phi[:, :, 0], float(base[0]), margins[:, 0]
    return phi, base, margins

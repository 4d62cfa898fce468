"""The unified engine surface: one protocol, one result shape.

Every engine in :mod:`repro.core` — :class:`~repro.core.engine.TahoeEngine`,
:class:`~repro.core.fil.FILEngine` and
:class:`~repro.core.multi.MultiGPUTahoeEngine` — conforms to the
:class:`Engine` protocol:

* construction is ``Engine(forest, spec, *, config=..., hardware=...,
  recorder=..., layout_cache=...)`` — everything after ``(forest, spec)``
  is keyword-only,
* inference is ``predict(X, *, batch_size=None, report=False)`` and
  returns an :class:`EngineResult` (or a subclass),
* ``update_forest(forest)`` returns the :class:`ConversionStats` of the
  reconversion,
* an empty inference batch raises ``ValueError("empty inference
  batch")`` instead of failing mid-batch.

The v1.1 positional call shapes (``TahoeEngine(forest, spec, config)``
and friends) had a one-release deprecation grace period; it is over and
the shims are gone — everything after ``(forest, spec)`` is genuinely
keyword-only now.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from repro.obs.report import RunReport
    from repro.strategies import StrategyResult
    from repro.trees.forest import Forest

__all__ = [
    "ConversionStats",
    "Engine",
    "EngineResult",
    "TIME_DOMAIN_SIMULATED",
    "TIME_DOMAIN_WALL",
    "check_batch",
]


@dataclass
class ConversionStats:
    """Wall-clock seconds of the online CPU part (section 7.4's five stages).

    ``cache_hit`` marks a conversion the
    :class:`~repro.core.cache.LayoutCache` satisfied without running the
    pipeline — the stage timings are then all zero and ``t_cache_lookup``
    is the only cost paid.  ``source`` records where the layout came
    from: ``"pipeline"`` (the five stages ran), ``"cache"`` (layout-cache
    hit) or ``"artifact"`` (loaded pre-converted from a packed ``.tahoe``
    file — every stage time is exactly zero).  ``node_encoding`` is the
    layout's node-record label (``w8/f32``, ``legacy-a1``, ...), filled
    in by the engine adopting the layout.
    """

    t_fetch_probabilities: float = 0.0
    t_node_rearrangement: float = 0.0
    t_similarity_detection: float = 0.0
    t_format_conversion: float = 0.0
    t_copy_to_gpu: float = 0.0
    t_cache_lookup: float = 0.0
    cache_hit: bool = False
    source: str = "pipeline"
    node_encoding: str | None = None

    @property
    def total(self) -> float:
        return (
            self.t_fetch_probabilities
            + self.t_node_rearrangement
            + self.t_similarity_detection
            + self.t_format_conversion
            + self.t_copy_to_gpu
            + self.t_cache_lookup
        )


#: The two clocks an engine's ``total_time`` can be denominated in.
TIME_DOMAIN_SIMULATED = "simulated"
TIME_DOMAIN_WALL = "wall"


@dataclass
class EngineResult:
    """Outcome of one ``Engine.predict`` call.

    Attributes:
        predictions: final per-sample predictions.
        total_time: seconds over all batches, in ``time_domain`` units.
        batches: per-batch strategy results.
        strategies_used: strategy name per batch.
        report: the run's :class:`~repro.obs.report.RunReport` (only when
            ``predict(..., report=True)``).
        time_domain: which clock ``total_time`` (and therefore
            ``throughput``) is measured on — ``"simulated"`` for the
            GPU-simulator engines, ``"wall"`` for the native backend.
            Throughput numbers from different domains must never be
            compared (``repro bench diff`` refuses to).
    """

    predictions: np.ndarray
    total_time: float
    batches: "list[StrategyResult]" = field(default_factory=list)
    strategies_used: list[str] = field(default_factory=list)
    report: "RunReport | None" = None
    time_domain: str = TIME_DOMAIN_SIMULATED

    @property
    def throughput(self) -> float:
        """Samples per second on this result's clock.

        For ``time_domain == "wall"`` (the native backend) this is real
        wall-clock samples/sec; for ``"simulated"`` it is samples per
        simulated GPU second.
        """
        n = self.predictions.shape[0]
        return n / self.total_time if self.total_time > 0 else float("inf")


@runtime_checkable
class Engine(Protocol):
    """What every inference engine exposes (structural typing)."""

    def predict(
        self, X: np.ndarray, *, batch_size: int | None = None, report: bool = False
    ) -> EngineResult: ...

    def update_forest(self, forest: "Forest") -> ConversionStats: ...

    def build_report(self, **meta) -> "RunReport": ...


def check_batch(X: np.ndarray, *, n_attributes: int | None = None) -> np.ndarray:
    """Coerce an inference batch to float32 and reject empty input.

    With ``n_attributes`` the batch must also be 2-D with exactly that
    many columns — the check engines whose kernels gather unchecked rely
    on.
    """
    X = np.asarray(X, dtype=np.float32)
    if X.shape[0] == 0:
        raise ValueError("empty inference batch")
    if n_attributes is not None and (X.ndim != 2 or X.shape[1] != n_attributes):
        got = f"{X.shape[1]} columns" if X.ndim == 2 else f"shape {X.shape}"
        raise ValueError(
            f"inference batch must be 2-D with {n_attributes} columns "
            f"(the forest's n_attributes), got {got}"
        )
    return X

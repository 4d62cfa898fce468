"""Model-guided strategy selection (Algorithm 1, lines 8–15).

Once per batch, evaluate the performance model of every applicable
strategy and execute the one with the shortest predicted time.  The
models cost ~100 floating-point operations, which the paper shows is
orders of magnitude below one inference — selection overhead is
negligible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.layout import ForestLayout
from repro.gpusim.specs import GPUSpec
from repro.obs.trace import span
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.models import (
    PredictedTime,
    predict_direct,
    predict_explain_direct,
    predict_explain_shared_paths,
    predict_shared_data,
    predict_shared_forest,
    predict_splitting_shared_forest,
)
from repro.perfmodel.notation import HardwareParams, workload_params
from repro.strategies import (
    DirectStrategy,
    ExplainDirectStrategy,
    ExplainSharedPathsStrategy,
    SharedDataStrategy,
    SharedForestStrategy,
    SplittingSharedForestStrategy,
)

__all__ = [
    "StrategyChoice",
    "rank_strategies",
    "rank_explain_strategies",
    "select_strategy",
]

_STRATEGY_CLASSES = {
    "shared_data": SharedDataStrategy,
    "direct": DirectStrategy,
    "shared_forest": SharedForestStrategy,
    "splitting_shared_forest": SplittingSharedForestStrategy,
    "explain_direct": ExplainDirectStrategy,
    "explain_shared_paths": ExplainSharedPathsStrategy,
}


@dataclass
class StrategyChoice:
    """One ranked strategy: its prediction and a ready-to-run instance."""

    prediction: PredictedTime

    @property
    def name(self) -> str:
        return self.prediction.strategy

    @property
    def predicted_time(self) -> float:
        return self.prediction.total

    def instantiate(self):
        """Build the strategy object this choice names."""
        return _STRATEGY_CLASSES[self.name]()

    def to_record(self) -> dict:
        """JSON-safe summary of this candidate (inf becomes None)."""
        t = self.predicted_time
        applicable = t != float("inf")
        return {
            "strategy": self.name,
            "predicted_time": float(t) if applicable else None,
            "applicable": applicable,
            "note": self.prediction.note,
        }


def rank_strategies(
    layout: ForestLayout,
    n_batch: int,
    spec: GPUSpec,
    hw: HardwareParams | None = None,
) -> list[StrategyChoice]:
    """Predict every strategy's batch time, best first.

    Inapplicable strategies (shared-forest on an oversized forest,
    splitting when a single tree exceeds shared memory) rank last with
    infinite predicted time.
    """
    if hw is None:
        hw = measure_hardware_parameters(spec)
    with span("rank_strategies", category="selector", batch=n_batch) as sp:
        sample, fp = workload_params(layout, n_batch)
        predictions = [
            predict_shared_data(sample, fp, hw, layout=layout),
            predict_direct(sample, fp, hw),
            predict_shared_forest(sample, fp, hw),
            predict_splitting_shared_forest(sample, fp, hw, layout=layout),
        ]
        # Splitting additionally requires every single tree to fit.
        offsets = layout.block.offsets
        biggest_tree = int((offsets[1:] - offsets[:-1]).max()) * layout.node_size
        for p in predictions:
            if p.strategy == "splitting_shared_forest" and biggest_tree > hw.shared_capacity:
                p.applicable = False
                p.note = "a single tree exceeds shared memory"
        choices = [StrategyChoice(prediction=p) for p in predictions]
        choices.sort(key=lambda c: c.predicted_time)
        sp.set(best=choices[0].name)
    return choices


def rank_explain_strategies(
    layout: ForestLayout,
    n_batch: int,
    spec: GPUSpec,
    hw: HardwareParams | None = None,
) -> list[StrategyChoice]:
    """Predict every explain strategy's batch time, best first.

    The explain workload has its own cost structure (path image instead
    of node arrays, O(d²) recurrences instead of a root→leaf walk), so
    it gets its own model family; the choice is still the paper's §6
    move — evaluate each model per batch, run the cheapest applicable.
    """
    from repro.explain.paths import path_set_for_layout

    if hw is None:
        hw = measure_hardware_parameters(spec)
    with span("rank_explain_strategies", category="selector", batch=n_batch) as sp:
        ps = path_set_for_layout(layout)
        predictions = [
            predict_explain_direct(n_batch, ps, hw),
            predict_explain_shared_paths(n_batch, ps, hw),
        ]
        choices = [StrategyChoice(prediction=p) for p in predictions]
        choices.sort(key=lambda c: c.predicted_time)
        sp.set(best=choices[0].name)
    return choices


def select_strategy(
    layout: ForestLayout,
    n_batch: int,
    spec: GPUSpec,
    hw: HardwareParams | None = None,
) -> StrategyChoice:
    """The best-predicted applicable strategy for this batch."""
    ranked = rank_strategies(layout, n_batch, spec, hw)
    best = ranked[0]
    if best.predicted_time == float("inf"):
        raise RuntimeError("no applicable inference strategy")
    return best

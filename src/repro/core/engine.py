"""The Tahoe engine (Algorithm 1).

Workflow, exactly as the paper stages it:

* **Offline (once per platform)** — microbenchmark the hardware
  parameters of Table 1.
* **Online, on forest (re)load** — fetch edge probabilities, rearrange
  nodes, detect tree similarity, convert to the adaptive format, ship the
  converted forest to the GPU.  Each stage is wall-clock timed into
  :class:`ConversionStats` for the section 7.4 overhead analysis, and the
  whole procedure re-runs whenever the forest is updated (incremental
  learning).
* **Per batch** — evaluate the four performance models, execute the
  strategy with the shortest predicted time, and (optionally) count edge
  probabilities observed during inference for the next conversion.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import ConversionStats, EngineResult, LayoutEngine
from repro.core.config import TahoeConfig
from repro.obs.trace import span
from repro.formats.encoding import make_encoding
from repro.formats.layout import ForestLayout, build_interleaved_layout, select_node_record
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.formats.tree_rearrange import similarity_tree_order
from repro.gpusim.specs import GPUSpec
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.notation import HardwareParams
from repro.perfmodel.selector import rank_explain_strategies, rank_strategies
from repro.strategies import StrategyNotApplicable, StrategyResult
from repro.trees.flat import FlatForest
from repro.trees.forest import Forest
from repro.trees.probabilities import update_visit_counts

__all__ = ["ConversionStats", "EngineResult", "TahoeEngine", "convert_forest"]


def convert_forest(forest: Forest, config: TahoeConfig) -> tuple[ForestLayout, ConversionStats]:
    """Run conversion stages 1–4 (Algorithm 1 lines 5–7) on ``forest``.

    The shared online pipeline behind every adaptive-layout consumer:
    :class:`TahoeEngine` and :class:`~repro.core.native.NativeEngine`
    both call this, so the two backends produce byte-identical layouts
    for the same ``(forest, config)`` — which is what lets either adopt
    a layout the other converted (:meth:`~repro.core.base.LayoutEngine.from_layout`).
    Stage 5 (shipping the layout to the execution target: the simulated
    GPU image, or the native flat arrays) stays engine-specific; its
    time goes into the returned stats' ``t_copy_to_gpu`` by the caller.
    """
    stats = ConversionStats()
    t0 = time.perf_counter()
    # Stage 1: fetch the tree ensemble and edge probabilities "from GPU"
    # — one level-synchronous pass over the flat forest arrays, which the
    # later stages read (heap positions, node probabilities).
    with span("fetch_probabilities", category="conversion"):
        flat = FlatForest.build(forest)
    t1 = time.perf_counter()
    stats.t_fetch_probabilities = t1 - t0
    # Stage 2: probability-based node rearrangement.
    with span("node_rearrangement", category="conversion"):
        if config.node_rearrangement:
            flat = rearrange_forest_nodes(flat)
    structured = flat.forest
    t2 = time.perf_counter()
    stats.t_node_rearrangement = t2 - t1
    # Stage 3: similarity detection (SimHash + LSH).
    with span(
        "similarity_detection", category="conversion", method=config.similarity_method
    ):
        if config.tree_rearrangement and forest.n_trees > 1:
            order = similarity_tree_order(
                flat,
                t_nodes=config.t_nodes,
                l_hash=config.l_hash,
                m_chunks=config.m_chunks,
                method=config.similarity_method,
            )
        else:
            order = None
    t3 = time.perf_counter()
    stats.t_similarity_detection = t3 - t2
    # Stage 4: convert to the adaptive format.
    with span("format_conversion", category="conversion"):
        encoding = make_encoding(structured, config.node_width, config.threshold_mode)
        record = select_node_record(structured, config.variable_width, encoding)
        layout = build_interleaved_layout(
            structured, record, order, "adaptive", encoding=encoding
        )
    stats.t_format_conversion = time.perf_counter() - t3
    stats.node_encoding = record.encoding_label
    return layout, stats


#: Layout metadata keys the coalescing probe fills.
_PROBED_RATES = {"coa_rate", "coa_rate_direct"}


class TahoeEngine(LayoutEngine):
    """Tree structure-aware adaptive inference engine.

    Everything after ``(forest, spec)`` is keyword-only (the shared
    :class:`~repro.core.base.Engine` surface).

    Args:
        forest: trained forest (visit counts carry the edge
            probabilities learned during training).
        spec: GPU to run on.
        config: engine configuration; defaults are the paper's
            (default-constructed per engine when omitted).
        hardware: pre-measured hardware parameters (reuse across engines
            on the same GPU; measured on demand otherwise).
        recorder: telemetry sink (built from ``config.obs`` otherwise).
    """

    report_name = "tahoe"

    @staticmethod
    def _measure_hardware(spec: GPUSpec) -> HardwareParams:
        return measure_hardware_parameters(spec)

    # ------------------------------------------------------------------
    # Inference (Algorithm 1, lines 8-16)
    # ------------------------------------------------------------------
    def select_strategy_name(self, n_batch: int) -> str:
        """The strategy the performance models pick for this batch size."""
        ranked = rank_strategies(self.layout, n_batch, self.spec, self.hardware)
        if self.config.strategy_override is not None:
            return self.config.strategy_override
        return ranked[0].name

    def _after_predict(self, X: np.ndarray) -> None:
        """Inference-time edge-probability counting (optional)."""
        if self.config.count_edge_probabilities:
            updated = self.forest.with_trees(
                [
                    update_visit_counts(tree, X, decay=self.config.edge_count_decay)
                    for tree in self.forest.trees
                ]
            )
            # Counts feed the *next* conversion; trigger it immediately so
            # subsequent batches see the refreshed probabilities.
            self._convert(updated)

    def _explain_batch(self, X, start, stop, index):
        """Rank the explain strategy family
        (:func:`~repro.perfmodel.selector.rank_explain_strategies`), run
        the cheapest applicable one on the simulator, and record the
        decision like any prediction batch."""
        rows = np.arange(start, stop, dtype=np.int64)
        ranked = rank_explain_strategies(self.layout, rows.shape[0], self.spec, self.hardware)
        for choice in ranked:
            if choice.predicted_time == float("inf"):
                continue
            try:
                result = choice.instantiate().run(self.layout, X, self.spec, sample_rows=rows)
            except StrategyNotApplicable:
                continue
            decision = self.recorder.record_decision(index, int(rows.shape[0]), ranked, choice)
            self.recorder.record_batch(index, result, decision)
            return result
        raise RuntimeError("no applicable explain strategy for this batch")

    def _probe_coalescing(self, X: np.ndarray, rows: np.ndarray) -> None:
        """Measure the layout's forest-read coalescing rates (COA_rate).

        Algorithm 1 line 2 lists COA_rate among the trained-forest inputs;
        a 32-sample probe on the real layout measures it once per
        conversion, and the performance models use it in place of the
        paper's fixed "half bandwidth" assumption.  The probe traces both
        access patterns the models price: shared-data's tree-parallel
        walk (``coa_rate``) and direct's sample-parallel walk
        (``coa_rate_direct``).
        """
        from repro.formats.tree_rearrange import round_robin_assignment
        from repro.gpusim.trace import trace_sample_parallel, trace_tree_parallel

        probe_rows = rows[: min(32, rows.shape[0])]
        assignments = round_robin_assignment(self.forest.n_trees, 64)
        tree_parallel = trace_tree_parallel(
            self.layout, X, probe_rows, assignments, self.spec
        )
        sample_parallel = trace_sample_parallel(
            self.layout, X, probe_rows, np.arange(self.forest.n_trees), self.spec
        )
        for key, trace in (("coa_rate", tree_parallel), ("coa_rate_direct", sample_parallel)):
            # A rate the layout already carries (a packed artifact's) stays.
            self.layout.metadata.setdefault(
                key, max(0.01, trace.counters.forest_global.load_efficiency)
            )

    def _run_batch(
        self, X, start, stop, batch_index, collect_level_stats, report
    ) -> StrategyResult:
        rows = np.arange(start, stop, dtype=np.int64)
        with span(
            "engine.run_batch", category="engine", index=batch_index, batch=rows.shape[0]
        ):
            if not _PROBED_RATES <= self.layout.metadata.keys():
                with span("coalescing_probe", category="engine"):
                    self._probe_coalescing(X, rows)
            full_ranking = rank_strategies(
                self.layout, rows.shape[0], self.spec, self.hardware
            )
            ranked = full_ranking
            if self.config.strategy_override is not None:
                ranked = [c for c in ranked if c.name == self.config.strategy_override]
                if not ranked:
                    raise ValueError(
                        f"unknown strategy override {self.config.strategy_override!r}"
                    )
            for choice in ranked:
                if choice.predicted_time == float("inf") and self.config.strategy_override is None:
                    continue
                try:
                    strategy = choice.instantiate()
                    result = strategy.run(
                        self.layout,
                        X,
                        self.spec,
                        sample_rows=rows,
                        collect_level_stats=collect_level_stats,
                    )
                except StrategyNotApplicable:
                    continue
                decision = self.recorder.record_decision(
                    batch_index, int(rows.shape[0]), full_ranking, choice, terms=report
                )
                self.recorder.record_batch(batch_index, result, decision)
                return result
            raise RuntimeError("no applicable inference strategy for this batch")

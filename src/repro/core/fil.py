"""The FIL baseline engine (paper sections 2–3).

RAPIDS FIL as the paper describes it: forests stored in the reorg format
(training tree order, trained child order, fixed 4-byte attribute index)
and evaluated with the shared-data algorithm — samples staged in shared
memory, trees dealt round-robin over the block's threads, one block-wise
reduction per sample.  No structure awareness anywhere: this is the
baseline every Tahoe speedup in section 7 is measured against.

The engine conforms to the shared :class:`~repro.core.base.Engine`
surface (keyword-only construction, uniform ``predict``, ``update_forest``
returning :class:`ConversionStats`, ``report=True`` support) so callers
and the serving layer can swap it in anywhere a Tahoe engine fits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import ConversionStats, EngineResult, check_batch
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.formats.encoding import make_encoding
from repro.formats.reorg import build_reorg_layout
from repro.gpusim.specs import GPUSpec
from repro.obs.recorder import RunRecorder
from repro.perfmodel.notation import HardwareParams
from repro.strategies import SharedDataStrategy, StrategyResult
from repro.trees.forest import Forest

__all__ = ["FILEngine", "fil_conversion_key"]

#: FIL's conversion has no tunables; this constant keys its cache slot.
_FIL_CONVERSION_KEY = ("reorg",)


def fil_conversion_key(config: TahoeConfig | None) -> tuple:
    """Cache key of FIL's reorg conversion.

    Historically the constant ``("reorg",)``; a packed node encoding is
    the one knob that changes the reorg layout's bytes, so it extends
    the key — legacy keys (and artifacts embedding them) are untouched.
    """
    if config is not None and config.node_width is not None:
        return _FIL_CONVERSION_KEY + (
            "node_encoding",
            str(config.node_width),
            config.threshold_mode,
        )
    return _FIL_CONVERSION_KEY


def fil_block_size(n_trees: int, spec: GPUSpec, cap: int = 256) -> int:
    """FIL's block size: enough threads to hold every tree in one
    round-robin round (maximum per-block parallelism, no balance
    awareness), warp-rounded and capped."""
    warps = max(1, (min(n_trees, cap) + spec.warp_size - 1) // spec.warp_size)
    return min(cap, warps * spec.warp_size)


class FILEngine:
    """Reorg format + shared-data strategy, unconditionally.

    Args:
        forest: trained forest.
        spec: GPU to run on.
        config: accepted for engine-surface uniformity; FIL has no
            structure-aware knobs, only ``config.obs`` is honoured.
        hardware: accepted for uniformity (FIL needs no microbenchmarks).
        recorder: telemetry sink (built from ``config.obs`` otherwise).
        layout_cache: reorg-layout cache shared across engines.
    """

    def __init__(
        self,
        forest: Forest,
        spec: GPUSpec,
        *,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
    ) -> None:
        self._init_common(spec, config, hardware, recorder, layout_cache)
        self._convert(forest)
        # FIL is industry-quality: it sizes its sample stages for device
        # occupancy just like any tuned kernel.  Its structural handicaps
        # are the ones the paper documents -- reorg layout, training-order
        # round-robin assignment, one-round-wide blocks, and the
        # unconditional block-wise reduction.
        self._strategy = SharedDataStrategy(
            threads_per_block=fil_block_size(self.forest.n_trees, spec),
        )

    def _init_common(
        self,
        spec: GPUSpec,
        config: TahoeConfig | None,
        hardware: HardwareParams | None,
        recorder: RunRecorder | None,
        layout_cache: LayoutCache | None,
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else TahoeConfig()
        obs = self.config.obs
        self.recorder = recorder if recorder is not None else RunRecorder(
            tracing=obs.tracing, metrics=obs.metrics, max_spans=obs.max_spans
        )
        self.hardware = hardware
        self.layout_cache = layout_cache
        self.conversion_stats = ConversionStats()

    @classmethod
    def from_layout(
        cls,
        layout,
        spec: GPUSpec,
        *,
        cache_key: tuple | None = None,
        config: TahoeConfig | None = None,
        hardware: HardwareParams | None = None,
        recorder: RunRecorder | None = None,
        layout_cache: LayoutCache | None = None,
    ) -> "FILEngine":
        """Build an engine around an already-built reorg layout (the
        packed-artifact fast path — no conversion work at all)."""
        engine = cls.__new__(cls)
        engine._init_common(spec, config, hardware, recorder, layout_cache)
        engine._adopt_layout(layout, ConversionStats(source="artifact"), cache_key)
        engine._strategy = SharedDataStrategy(
            threads_per_block=fil_block_size(engine.forest.n_trees, spec),
        )
        return engine

    def _adopt_layout(self, layout, stats: ConversionStats, cache_key=None) -> None:
        self.layout = layout
        self.forest = layout.forest
        stats.node_encoding = layout.record.encoding_label
        self.conversion_stats = stats
        self.recorder.record_conversion(stats)
        if self.layout_cache is not None and cache_key is not None:
            self.layout_cache.put(cache_key, layout)

    def _convert(self, forest: Forest) -> None:
        cache_key = None
        if self.layout_cache is not None:
            t0 = time.perf_counter()
            cache_key = LayoutCache.key(forest, self.spec, fil_conversion_key(self.config))
            cached = self.layout_cache.get(cache_key)
            lookup = time.perf_counter() - t0
            if cached is not None:
                stats = ConversionStats(
                    t_cache_lookup=lookup, cache_hit=True, source="cache"
                )
                self._adopt_layout(cached, stats)
                return
        stats = ConversionStats()
        t0 = time.perf_counter()
        encoding = make_encoding(forest, self.config.node_width, self.config.threshold_mode)
        layout = build_reorg_layout(forest, node_encoding=encoding)
        t1 = time.perf_counter()
        stats.t_format_conversion = t1 - t0
        from repro.gpusim.trace import flatten_layout

        flatten_layout(layout)
        stats.t_copy_to_gpu = time.perf_counter() - t1
        self._adopt_layout(layout, stats, cache_key)

    def update_forest(self, forest: Forest) -> ConversionStats:
        """Rebuild the reorg layout for an updated forest."""
        self._convert(forest)
        self._strategy = SharedDataStrategy(
            threads_per_block=fil_block_size(self.forest.n_trees, self.spec),
        )
        return self.conversion_stats

    def predict(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        collect_level_stats: bool = False,
        report: bool = False,
    ) -> EngineResult:
        """Run inference over ``X`` batch by batch (shared data only)."""
        X = check_batch(X, n_attributes=self.forest.n_attributes)
        n = X.shape[0]
        if batch_size is None or batch_size >= n:
            batch_size = n
        if self.forest.n_classes > 1:
            predictions = np.zeros((n, self.forest.n_classes), dtype=np.float64)
        else:
            predictions = np.zeros(n, dtype=np.float64)
        batches: list[StrategyResult] = []
        total_time = 0.0
        with self.recorder.activate():
            for index, start in enumerate(range(0, n, batch_size)):
                rows = np.arange(start, min(start + batch_size, n), dtype=np.int64)
                result = self._strategy.run(
                    self.layout,
                    X,
                    self.spec,
                    sample_rows=rows,
                    collect_level_stats=collect_level_stats,
                )
                predictions[rows] = result.predictions
                batches.append(result)
                total_time += result.time
                self.recorder.record_batch(index, result)
        return EngineResult(
            predictions=predictions,
            total_time=total_time,
            batches=batches,
            strategies_used=["shared_data"] * len(batches),
            report=self.build_report(
                n_samples=n, batch_size=batch_size, total_time=total_time
            )
            if report
            else None,
        )

    def explain(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        report: bool = False,
    ):
        """Exact SHAP attributions over the reorg layout.

        FIL has no model-guided selection for prediction and gets none
        here either: every batch runs
        :class:`~repro.strategies.explain.ExplainDirectStrategy`
        unconditionally, mirroring its fixed shared-data choice.  The
        attributions match the Tahoe engine's to float64 rounding (same
        kernel, same forest semantics; the adaptive layout's tree
        rearrangement changes the accumulation order) — only the
        simulated traffic differs.
        """
        from repro.explain import ExplainResult, squeeze_single_class
        from repro.strategies import ExplainDirectStrategy

        X = check_batch(X, n_attributes=self.forest.n_attributes)
        n = X.shape[0]
        if batch_size is None or batch_size >= n:
            batch_size = n
        K = self.forest.n_classes
        phi = np.zeros((n, self.forest.n_attributes, K), dtype=np.float64)
        margins = np.zeros((n, K), dtype=np.float64)
        base = np.zeros(K, dtype=np.float64)
        strategy = ExplainDirectStrategy()
        batches: list[StrategyResult] = []
        total_time = 0.0
        with self.recorder.activate():
            for index, start in enumerate(range(0, n, batch_size)):
                rows = np.arange(start, min(start + batch_size, n), dtype=np.int64)
                result = strategy.run(self.layout, X, self.spec, sample_rows=rows)
                phi[rows] = result.attributions
                margins[rows] = result.predictions
                base = result.base_values
                batches.append(result)
                total_time += result.time
                self.recorder.record_batch(index, result)
        phi, base, margins = squeeze_single_class(phi, base, margins)
        return ExplainResult(
            attributions=phi,
            base_values=base,
            predictions=margins,
            total_time=total_time,
            batches=batches,
            strategies_used=[strategy.name] * len(batches),
            report=self.build_report(
                n_samples=n, batch_size=batch_size, total_time=total_time
            )
            if report
            else None,
        )

    def build_report(
        self,
        n_samples: int = 0,
        batch_size: int | None = None,
        total_time: float = 0.0,
        **meta,
    ):
        """Assemble the engine's telemetry into a :class:`RunReport`."""
        return self.recorder.build_report(
            engine="fil",
            gpu=self.spec.name,
            n_samples=n_samples,
            batch_size=batch_size,
            total_time=total_time,
            **meta,
        )

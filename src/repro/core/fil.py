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

from repro.core.base import ConversionStats, LayoutEngine
from repro.core.config import TahoeConfig
from repro.formats.encoding import make_encoding
from repro.formats.layout import ForestLayout
from repro.formats.reorg import build_reorg_layout
from repro.gpusim.specs import GPUSpec
from repro.strategies import ExplainDirectStrategy, SharedDataStrategy, StrategyResult
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


class FILEngine(LayoutEngine):
    """Reorg format + shared-data strategy, unconditionally.

    Args:
        forest: trained forest.
        spec: GPU to run on.
        config: accepted for engine-surface uniformity; FIL has no
            structure-aware knobs, only ``config.obs`` and the packed
            node encoding are honoured.
        hardware: accepted for uniformity (FIL needs no microbenchmarks).
        recorder: telemetry sink (built from ``config.obs`` otherwise).
    """

    report_name = "fil"

    @classmethod
    def conversion_key(cls, config: TahoeConfig | None) -> tuple:
        return fil_conversion_key(config)

    def _convert_stages(self, forest: Forest) -> tuple[ForestLayout, ConversionStats]:
        stats = ConversionStats()
        t0 = time.perf_counter()
        encoding = make_encoding(forest, self.config.node_width, self.config.threshold_mode)
        layout = build_reorg_layout(forest, node_encoding=encoding)
        stats.t_format_conversion = time.perf_counter() - t0
        return layout, stats

    def _install(self, layout: ForestLayout) -> None:
        # FIL is industry-quality: it sizes its sample stages for device
        # occupancy just like any tuned kernel.  Its structural handicaps
        # are the ones the paper documents -- reorg layout, training-order
        # round-robin assignment, one-round-wide blocks, and the
        # unconditional block-wise reduction.
        self._strategy = SharedDataStrategy(
            threads_per_block=fil_block_size(layout.forest.n_trees, self.spec),
        )

    def _run_batch(self, X, start, stop, index, collect_level_stats, report) -> StrategyResult:
        result = self._strategy.run(
            self.layout,
            X,
            self.spec,
            sample_rows=np.arange(start, stop, dtype=np.int64),
            collect_level_stats=collect_level_stats,
        )
        self.recorder.record_batch(index, result)
        return result

    def _explain_batch(self, X, start, stop, index):
        """FIL has no model-guided selection for prediction and gets none
        for explain either: every batch runs
        :class:`~repro.strategies.explain.ExplainDirectStrategy`
        unconditionally, mirroring its fixed shared-data choice.  The
        attributions match the Tahoe engine's to float64 rounding (same
        kernel, same forest semantics; the adaptive layout's tree
        rearrangement changes the accumulation order) — only the
        simulated traffic differs."""
        result = ExplainDirectStrategy().run(
            self.layout, X, self.spec, sample_rows=np.arange(start, stop, dtype=np.int64)
        )
        self.recorder.record_batch(index, result)
        return result

"""Ranking packed node encodings by predicted bytes moved.

The section-6 performance models are linear in ``S_node`` through every
forest-traffic term, so the effect of a narrower node record can be
predicted without rebuilding the layout: substitute the candidate's
``S_node`` (and the proportionally scaled ``S_forest``) into the
workload parameters and re-evaluate.  The primary ranking key is the
predicted global-memory bytes moved for node fetches over one batch —
the quantity the packed formats exist to shrink — with the best
strategy's predicted time as the tiebreaker and a shared-memory
fit flag showing which encodings unlock the shared-forest strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.formats.encoding import (
    THRESHOLD_MODES,
    WIDTH_BITS,
    NodeEncoding,
    max_attribute_index,
)
from repro.formats.layout import ForestLayout
from repro.gpusim.specs import GPUSpec
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.models import (
    predict_direct,
    predict_shared_data,
    predict_shared_forest,
    predict_splitting_shared_forest,
)
from repro.perfmodel.notation import (
    ForestParams,
    HardwareParams,
    SampleParams,
    workload_params,
)

__all__ = ["EncodingChoice", "predicted_node_bytes_moved", "rank_node_encodings"]


@dataclass
class EncodingChoice:
    """One candidate node encoding and its predicted traffic/time."""

    encoding: NodeEncoding
    node_bytes: int
    s_forest: int
    bytes_moved: float
    best_strategy: str
    predicted_time: float
    shared_forest_fits: bool
    current: bool = False

    @property
    def name(self) -> str:
        return self.encoding.name

    def to_record(self) -> dict:
        """JSON-safe summary (mirrors ``StrategyChoice.to_record``)."""
        applicable = self.predicted_time != float("inf")
        return {
            "encoding": self.name,
            "node_bytes": self.node_bytes,
            "s_forest": self.s_forest,
            "predicted_bytes_moved": float(self.bytes_moved),
            "best_strategy": self.best_strategy,
            "predicted_time": float(self.predicted_time) if applicable else None,
            "shared_forest_fits": self.shared_forest_fits,
            "current": self.current,
        }


def predicted_node_bytes_moved(sample: SampleParams, fp: ForestParams) -> float:
    """Global-memory bytes fetched for node records over one batch.

    Every sample walks ``D_tree`` nodes in each of ``N_trees`` trees;
    each visit requests ``S_node`` bytes, inflated by the layout's
    measured coalescing rate (requested/fetched) — the model's shared
    node-traffic term before bandwidth division.
    """
    return sample.n_batch * fp.d_tree * fp.n_trees * fp.s_node / fp.coa_rate


def rank_node_encodings(
    layout: ForestLayout,
    n_batch: int,
    spec: GPUSpec,
    hw: HardwareParams | None = None,
    threshold_mode: str = "f32",
) -> list[EncodingChoice]:
    """Rank the feasible packed encodings for ``layout``'s forest.

    Candidates are the widths of :data:`WIDTH_BITS` whose fid capacity
    covers the forest's largest referenced attribute, each paired with
    ``threshold_mode``.  Ordered by predicted node bytes moved
    (ascending), then predicted best-strategy time.  The entry matching
    the layout's current record is flagged ``current``.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    if hw is None:
        hw = measure_hardware_parameters(spec)
    sample, fp = workload_params(layout, n_batch)
    max_fid = max_attribute_index(layout.forest)
    total_slots = layout.total_bytes // layout.node_size
    choices: list[EncodingChoice] = []
    for bits in WIDTH_BITS:
        if max_fid >= (1 << (bits - 3)):
            continue
        enc = NodeEncoding(bits, threshold_mode)
        s_forest = int(total_slots * enc.node_bytes)
        cand_fp = replace(fp, s_node=enc.node_bytes, s_forest=s_forest)
        # Pass the real layout only when the candidate matches its
        # record: the layout-aware terms (stretch, partitioning) read
        # layout.node_size and would mix byte widths otherwise.
        matches_current = enc.node_bytes == layout.node_size and not layout.record.flags_bytes
        lay = layout if matches_current else None
        predictions = [
            predict_shared_data(sample, cand_fp, hw, layout=lay),
            predict_direct(sample, cand_fp, hw),
            predict_shared_forest(sample, cand_fp, hw),
        ]
        if lay is not None:
            predictions.append(
                predict_splitting_shared_forest(sample, cand_fp, hw, layout=lay)
            )
        best = min(predictions, key=lambda p: p.total)
        choices.append(
            EncodingChoice(
                encoding=enc,
                node_bytes=enc.node_bytes,
                s_forest=s_forest,
                bytes_moved=predicted_node_bytes_moved(sample, cand_fp),
                best_strategy=best.strategy,
                predicted_time=best.total,
                shared_forest_fits=s_forest <= hw.shared_capacity,
                current=matches_current,
            )
        )
    choices.sort(key=lambda c: (c.bytes_moved, c.predicted_time))
    return choices

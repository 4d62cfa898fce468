"""Tahoe engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ObsConfig", "TahoeConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (see :mod:`repro.obs`).

    Attributes:
        tracing: record spans through conversion, selection, the chosen
            strategy and the simulated kernel loop.  Off by default —
            every span costs a clock read and an allocation; disabled
            tracing is a shared no-op context manager.
        metrics: fold per-batch traffic counters into the run's metrics
            registry (cheap: a few counter increments per batch).
        max_spans: tracer capacity backstop for long runs.
    """

    tracing: bool = False
    metrics: bool = True
    max_spans: int = 100_000


@dataclass(frozen=True)
class TahoeConfig:
    """Knobs of the Tahoe engine.

    Defaults are the paper's (section 7.1: ``T_nodes=4``, ``L_hash=128``,
    ``M=64``; all three format techniques on; LSH-based similarity).

    Attributes:
        t_nodes: nodes per SimHash token.
        l_hash: SimHash checksum length in bits.
        m_chunks: LSH chunk count.
        node_rearrangement: apply probability-based child swapping.
        tree_rearrangement: apply similarity-based tree ordering.
        variable_width: use the just-wide-enough attribute index.
        similarity_method: ``"lsh"`` (online) or ``"pairwise"`` (exact,
            quadratic — the section 7.4 baseline).
        node_width: packed node-word width — ``None`` (legacy separate
            flags byte, the default), ``"auto"`` (narrowest of 8/16/32
            bits whose fid capacity covers the forest, like
            ``encode_node_adaptive``), or an explicit ``8``/``16``/``32``.
        threshold_mode: float-field storage for packed records —
            ``"f32"`` (lossless default), ``"f16"``, ``"q8"``, ``"q16"``
            (nextafter-safe ceil-quantised thresholds).  Only meaningful
            when ``node_width`` is set.
        strategy_override: force a strategy by name instead of using the
            performance models (ablation hook).
        count_edge_probabilities: blend inference-time routing back into
            the forest's visit counts (Algorithm 1 line 16), so the next
            conversion reflects the inference distribution.
        edge_count_decay: blending factor for the above.
        obs: observability toggles (tracing / metrics collection).
    """

    t_nodes: int = 4
    l_hash: int = 128
    m_chunks: int = 64
    node_rearrangement: bool = True
    tree_rearrangement: bool = True
    variable_width: bool = True
    similarity_method: str = "lsh"
    node_width: int | str | None = None
    threshold_mode: str = "f32"
    strategy_override: str | None = None
    count_edge_probabilities: bool = False
    edge_count_decay: float = 0.9
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        # The similarity parameters are checked here, not at conversion:
        # a forest of one tree, or tree_rearrangement=False, never reaches
        # the code that would reject them.
        if self.t_nodes < 2:
            raise ValueError(f"t_nodes must be >= 2, got {self.t_nodes}")
        if self.l_hash <= 0:
            raise ValueError(f"l_hash must be positive, got {self.l_hash}")
        if self.m_chunks <= 0:
            raise ValueError(f"m_chunks must be positive, got {self.m_chunks}")
        if self.l_hash % self.m_chunks != 0:
            raise ValueError(
                f"l_hash={self.l_hash} is not divisible by m_chunks={self.m_chunks}"
            )
        if self.similarity_method not in ("lsh", "pairwise"):
            raise ValueError(
                "similarity_method must be 'lsh' or 'pairwise', "
                f"got {self.similarity_method!r}"
            )

    def conversion_key(self) -> tuple:
        """The knobs the conversion pipeline's output depends on.

        Hashable; recorded in a packed artifact's header as the
        provenance of its layout.  Runtime-only knobs (strategy
        override, observability, edge counting) deliberately excluded —
        they never change the layout.
        """
        key = (
            self.t_nodes,
            self.l_hash,
            self.m_chunks,
            self.node_rearrangement,
            self.tree_rearrangement,
            self.variable_width,
            self.similarity_method,
        )
        # Appended only when packing is requested, so legacy keys (and
        # the artifacts that embed them) are untouched.
        if self.node_width is not None:
            key += ("node_encoding", str(self.node_width), self.threshold_mode)
        return key

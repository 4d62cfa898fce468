"""The native backend: real vectorised execution of converted layouts.

Every other engine in this repo *simulates* a GPU — their throughput
numbers measure how fast the simulator runs, not how fast a forest can
be evaluated.  :class:`NativeEngine` closes that gap: it takes an
already-converted :class:`~repro.formats.layout.ForestLayout` (tahoe
adaptive or fil reorg — the flattening is format-agnostic) and executes
it with batched, vectorised traversal on the host, reporting genuine
wall-clock time (``EngineResult.time_domain == "wall"``).

Execution scheme (Py-Boost's ``EnsembleInference`` trick, adapted):

* **Flattening** — at layout-adoption time the forest's trees are
  concatenated into contiguous ``feature`` / ``threshold`` / child /
  ``value`` arrays (:class:`NativeForest`).  The per-node ``flip`` bit
  is *resolved away* by swapping the children (and xor-ing the default
  direction), so the hot loop's predicate is a plain ``x < threshold``.
  Leaves become self-loops (both children point at the leaf itself), so
  finished lanes need no masking — they just gather themselves until
  the loop ends.
* **Traversal** — all ``(sample, tree)`` cursors advance one level per
  step with fancy-indexed gathers over the flat arrays
  (level-synchronous), or sample-by-sample in the scalar kernel when
  numba is available to JIT-compile it.
* **Reduction** — per-tree leaf values accumulate into a float64
  per-sample sum and run through the exact same
  :func:`~repro.strategies.base.finalize_predictions` the simulated
  strategies use, which is what makes native predictions bit-identical
  to :class:`~repro.core.engine.TahoeEngine`'s.

numba is detected at import (:data:`HAVE_NUMBA`) and decides the
kernel: the jitted scalar kernel with numba, the vectorised numpy
kernel without it.  The scalar kernel stays callable in pure Python as
the reference the tests compare the numpy kernel against.

The engine conforms to the shared :class:`~repro.core.base.Engine`
surface and converts with the *same* pipeline as :class:`TahoeEngine` —
a layout converted for one backend can be adopted by the other, and
packed ``.tahoe`` artifacts adopt with zero conversion via
:meth:`NativeEngine.from_layout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.base import TIME_DOMAIN_WALL, EngineResult, LayoutEngine
from repro.formats.layout import ForestLayout
from repro.gpusim.counters import TrafficCounters
from repro.gpusim.specs import GPUSpec
from repro.perfmodel.microbench import measure_hardware_parameters
from repro.perfmodel.native import (
    NativeCostModel,
    calibrate_native_model,
    rank_hardware_targets,
)
from repro.perfmodel.notation import HardwareParams
from repro.strategies import StrategyResult
from repro.strategies.base import finalize_predictions
from repro.strategies.explain import ExplainStrategyResult
from repro.trees.tree import LEAF

__all__ = [
    "HAVE_NUMBA",
    "NativeEngine",
    "NativeForest",
    "flatten_native",
]

try:  # pragma: no cover - exercised on numba-equipped machines/CI only
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # the container default: clean numpy fallback
    _numba = None
    HAVE_NUMBA = False

#: Target (sample, tree) lanes per block of the numpy kernel.  At 2^15
#: lanes a block's scratch arrays total ~1.2 MB (128 KB per 4-byte
#: array), so they and the node arrays stay in a 2 MB per-core L2.  The
#: sweep over 2^14-2^18 on the Higgs, letter and covtype bench forests
#: that picked it is in docs/performance.md: 2^14 and 2^15 tie, larger
#: blocks fall out of L2 and lose up to 3x at 4096 rows.
_TARGET_LANES = 1 << 15


@dataclass
class NativeForest:
    """A forest flattened for native traversal (all trees concatenated).

    Node ids are *global* across trees (tree ``t``'s nodes occupy
    ``[offsets[t], offsets[t+1])``).  The conversion-time ``flip`` bit
    is already resolved: ``child_pair[2*node + 1]`` is the node taken
    when ``x[feature] < threshold`` holds, ``child_pair[2*node]``
    otherwise, and ``default_true`` says whether a missing (NaN)
    attribute takes the true branch (original ``default_left ^ flip``).
    Leaves keep ``feature == -1`` (the scalar kernel's termination test)
    but carry a safe ``feature_ix == 0`` for masked-free vectorised
    gathers, and self-loop through both child pointers.
    """

    feature: np.ndarray  # int32, -1 at leaves
    feature_ix: np.ndarray  # int32, gather-safe (0 at leaves)
    threshold: np.ndarray  # float32
    child_pair: np.ndarray  # int32, interleaved [false, true]; leaf self-loops
    default_true: np.ndarray  # bool
    value: np.ndarray  # float32 leaf values (0 at decision nodes)
    roots: np.ndarray  # int32, per-tree root global id
    offsets: np.ndarray  # int64, per-tree start (n_trees + 1)
    max_depth: int
    n_attributes: int
    #: Per-tree output group (all 0 for single-output forests).
    tree_group: np.ndarray  # int64 (n_trees,)
    n_groups: int
    #: Categorical bitsets (global node ids).  Numeric forests carry
    #: all-(-1) offsets and a one-word pool, so the scalar kernel has a
    #: single signature; ``has_cat`` lets the numpy kernel skip them.
    has_cat: bool
    cat_offset: np.ndarray  # int64, -1 at numeric nodes
    cat_count: np.ndarray  # int32 words per bitset
    cat_bits: np.ndarray  # uint32 pool

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def scalar_args(self) -> tuple:
        """The array arguments of :func:`_traverse_scalar`, in order."""
        return (
            self.feature,
            self.threshold,
            self.child_pair,
            self.default_true,
            self.value,
            self.roots,
            self.tree_group,
            self.cat_offset,
            self.cat_count,
            self.cat_bits,
        )


def flatten_native(layout: ForestLayout) -> NativeForest:
    """Build (and cache on the layout) the native traversal arrays.

    Cached under ``layout.metadata["_native"]`` so every replica
    adopting the same layout object (the serving pool, the cache) shares
    one flattening — mirroring how the simulator caches its device image
    under ``"_flat"``.  Underscore keys are stripped from packed
    artifacts, so the cache never leaks to disk.
    """
    cached = layout.metadata.get("_native")
    if cached is not None:
        return cached
    block, forest = layout.block, layout.forest
    offsets, total, feature, flip = block.offsets, block.n_nodes, block.feature, block.flip
    leaf = feature == LEAF
    # Resolve the flip bit: the predicate becomes a plain `<`, the
    # flipped node's children swap, and the default path follows.
    # Interleaved children: every kernel resolves a step with ONE gather,
    # next = child_pair[2*cur + go] (go ∈ {0, 1}), instead of two
    # gathers plus a where.  Leaves loop to themselves.
    node, base = np.arange(total, dtype=np.int64), offsets[block.tree_index()]
    lo, hi = block.local_left, block.local_right
    child_pair = np.empty(2 * total, dtype=np.int32)
    child_pair[0::2] = np.where(leaf, node, np.where(flip, lo, hi) + base)
    child_pair[1::2] = np.where(leaf, node, np.where(flip, hi, lo) + base)
    # Numeric nodes keep offset -1, so a forest without categorical
    # splits gets all-(-1) dummies (stride-0 views: no memory) and a
    # one-word pool.
    cat_offset = block.global_cat_offset()
    has_cat = cat_offset is not None
    _check_indices(feature, child_pair, offsets, int(forest.n_attributes))
    flat = NativeForest(
        feature=feature,
        feature_ix=np.where(leaf, np.int32(0), feature).astype(np.int32),
        threshold=block.threshold,
        child_pair=child_pair,
        default_true=~leaf & (block.default_left ^ flip),
        value=np.where(leaf, block.value, np.float32(0.0)),
        roots=offsets[:-1].astype(np.int32),
        offsets=offsets,
        max_depth=int(block.tree_depths().max()),
        n_attributes=int(forest.n_attributes),
        tree_group=block.group,
        n_groups=int(forest.n_classes),
        has_cat=has_cat,
        cat_offset=cat_offset if has_cat else np.broadcast_to(np.int64(-1), total),
        cat_count=block.cat_count if has_cat else np.broadcast_to(np.int32(0), total),
        cat_bits=block.cat_bits if has_cat else np.zeros(1, dtype=np.uint32),
    )
    layout.metadata["_native"] = flat
    return flat


def _check_indices(
    feature: np.ndarray, child_pair: np.ndarray, offsets: np.ndarray, n_attributes: int
) -> None:
    """Prove every index the numpy kernel gathers with is in range.

    The kernel's hot gathers run unchecked (``take(mode="clip")``), so
    this is where a corrupt layout must fail: every child pointer stays
    inside its own tree (hence inside ``[0, n_nodes)``) and every
    decision node's feature lies in ``[0, n_attributes)``.  Together with
    the batch-width check in :meth:`NativeEngine.predict`, no clipped
    index can ever change an answer.
    """
    sizes2 = 2 * np.diff(offsets)
    low = np.repeat(offsets[:-1], sizes2)
    high = np.repeat(offsets[1:], sizes2)
    bad = np.flatnonzero((child_pair < low) | (child_pair >= high))
    if bad.size:
        node = int(bad[0]) // 2
        tree = int(np.searchsorted(offsets, node, side="right")) - 1
        raise ValueError(
            f"tree {tree} node {node - int(offsets[tree])} has child "
            f"{int(child_pair[bad[0]] - offsets[tree])} outside the tree's "
            f"{int(offsets[tree + 1] - offsets[tree])} nodes"
        )
    bad = np.flatnonzero((feature != LEAF) & ((feature < 0) | (feature >= n_attributes)))
    if bad.size:
        node = int(bad[0])
        tree = int(np.searchsorted(offsets, node, side="right")) - 1
        raise ValueError(
            f"tree {tree} node {node - int(offsets[tree])} splits on feature "
            f"{int(feature[node])}, outside [0, {n_attributes})"
        )


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _traverse_scalar(
    X,
    feature,
    threshold,
    child_pair,
    default_true,
    value,
    roots,
    group,
    cat_offset,
    cat_count,
    cat_bits,
    out,
):
    """Scalar kernel — the exact code numba JIT-compiles.

    Plain nested loops, one (sample, tree) walk at a time, with
    categorical bitset membership and per-group float64 accumulation
    into the zeroed ``(n_samples, n_groups)`` ``out``.  Kept free of
    Python-only constructs so the same function object works under
    ``@njit`` and as the pure-Python reference the tests compare the
    numpy kernel against.
    """
    n_samples = X.shape[0]
    n_trees = roots.shape[0]
    for i in range(n_samples):
        for t in range(n_trees):
            node = roots[t]
            f = feature[node]
            while f >= 0:
                v = X[i, f]
                if v != v:  # NaN: the (flip-resolved) default path
                    go = default_true[node]
                elif cat_offset[node] >= 0:
                    # Bitset membership on the truncated category code;
                    # negative / out-of-range codes are non-members.
                    go = False
                    if v >= 0:
                        code = np.int64(v)
                        w = code >> 5
                        if w < cat_count[node]:
                            bits = np.int64(cat_bits[cat_offset[node] + w])
                            go = ((bits >> (code & 31)) & 1) == 1
                else:
                    go = v < threshold[node]
                node = child_pair[2 * node + (1 if go else 0)]
                f = feature[node]
            out[i, group[t]] += float(value[node])
    return out


if HAVE_NUMBA:  # pragma: no cover - numba-equipped environments only
    _traverse_scalar_jit = _numba.njit(cache=True, nogil=True)(_traverse_scalar)
else:
    _traverse_scalar_jit = None


def _live(m: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The first ``m`` entries of each scratch array (the arrays
    themselves when they are exactly that long)."""
    if arrays[0].shape[0] == m:
        return arrays
    return tuple(a[:m] for a in arrays)


def _traverse_numpy(X: np.ndarray, flat: NativeForest, out: np.ndarray) -> np.ndarray:
    """Level-synchronous vectorised traversal over flattened (sample, tree)
    lanes.

    All cursors advance one level per step; leaf self-loops make
    finished lanes harmless, so no masking is needed.  Each step costs
    four gathers — feature ids, sample values, thresholds, and the
    interleaved child pair ``child_pair[2*cur + go]`` (one gather where
    the naive form needs two plus a ``where``) — all issued through
    ``ndarray.take``, which is roughly twice as fast as fancy ``[]``
    indexing, with the sample gather done against the flattened feature
    matrix (``X.ravel().take(row*n_attr + feature)`` beats a 2-D fancy
    gather by ~5x).  The self-loop property doubles as a free
    termination test: a lane is finished exactly when its child equals
    its cursor, so the kernel stops early once no lane moves, and
    compacts the survivors away from the stranded ones once enough have
    died.  The NaN default-path handling is hoisted out of the level
    loop — clean batches (the common case) never pay for it.

    Memory behaviour is the point (the host analogue of Tahoe's
    coalescing argument): batches run in blocks of about
    :data:`_TARGET_LANES` lanes, so one block's per-level arrays and the
    node arrays stay resident in a core's L2.  The index, value,
    threshold, branch, step and alive arrays are allocated once per call,
    sized to one block, and every level writes into them with ``out=``.
    The hot gathers run ``take(..., mode="clip")``, which writes ``out``
    directly instead of buffering it and range-checking every index; the
    ranges are proven once at the boundary instead —
    :func:`flatten_native` checks every child and feature index, and
    :meth:`NativeEngine.predict` checks the batch width — so the clip
    never changes an index.  Leaf values reduce in float64 (exact for
    realistic leaf magnitudes, hence order-independent — see
    docs/performance.md).
    """
    n, n_attr = X.shape
    n_trees = flat.n_trees
    rows = max(1, min(n, _TARGET_LANES // max(1, n_trees)))
    size = rows * n_trees
    has_nan = bool(np.isnan(X).any())
    Xf = np.ascontiguousarray(X).reshape(-1)
    # Per-call scratch, one block's worth.  Sample-gather indices stay
    # int32 (half the index traffic of intp) while they fit.
    idx = np.int32 if rows * n_attr < 2**31 else np.intp
    node = np.empty(size, dtype=np.int32)
    nxt = np.empty(size, dtype=np.int32)
    step = np.empty(size, dtype=np.int32)
    feat = np.empty(size, dtype=np.int32)
    base = np.empty(size, dtype=idx)
    xidx = np.empty(size, dtype=idx)
    vals = np.empty(size, dtype=np.float32)
    thr = np.empty(size, dtype=np.float32)
    go = np.empty(size, dtype=bool)
    alive = np.empty(size, dtype=bool)
    final = np.empty(size, dtype=np.int32)
    row_base = np.arange(rows, dtype=idx) * n_attr
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        c = stop - start
        m = lanes = c * n_trees
        # Rebased block view: sample-gather indices restart at 0.
        Xc = Xf[start * n_attr : stop * n_attr]
        node.reshape(rows, n_trees)[:c] = flat.roots
        base.reshape(rows, n_trees)[:c] = row_base[:c, None]
        # Views over the live lanes, re-sliced only when their count
        # changes (a short last block, a compaction), never per level.
        v_node, v_base, v_nxt, v_step, v_feat, v_xidx = _live(
            m, node, base, nxt, step, feat, xidx
        )
        v_vals, v_thr, v_go, v_alive = _live(m, vals, thr, go, alive)
        # Lane compaction: ragged tree depths strand an increasing share
        # of lanes on self-looping leaves; once enough die, stop
        # gathering for them.  ``origin`` maps the compacted lanes back
        # to their block slot (None while no compaction has happened);
        # ``final`` holds every lane's resting node.
        origin = None
        for depth in range(flat.max_depth):
            flat.feature_ix.take(v_node, out=v_feat, mode="clip")
            np.add(v_base, v_feat, out=v_xidx)
            Xc.take(v_xidx, out=v_vals, mode="clip")
            flat.threshold.take(v_node, out=v_thr, mode="clip")
            np.less(v_vals, v_thr, out=v_go)
            if flat.has_cat:
                co = flat.cat_offset.take(v_node)
                cat = co >= 0
                if cat.any():
                    v = v_vals[cat].astype(np.float64)
                    code = np.where(
                        np.isfinite(v) & (v >= 0), v, -1.0
                    ).astype(np.int64)
                    word = code >> 5
                    valid = (code >= 0) & (
                        word < flat.cat_count.take(v_node[cat]).astype(np.int64)
                    )
                    slot = co[cat] + np.where(valid, word, 0)
                    bits = flat.cat_bits.take(slot).astype(np.int64)
                    v_go[cat] = valid & (((bits >> (code & 31)) & 1) == 1)
            if has_nan:
                missing = np.isnan(v_vals)
                if missing.any():
                    v_go[missing] = flat.default_true.take(v_node[missing])
            # step = 2*node + go, elementwise in int32 without temporaries
            np.add(v_node, v_node, out=v_step)
            np.add(v_step, v_go, out=v_step, casting="unsafe")
            flat.child_pair.take(v_step, out=v_nxt, mode="clip")
            if depth >= 2 and depth + 1 < flat.max_depth:
                np.not_equal(v_nxt, v_node, out=v_alive)
                n_alive = int(np.count_nonzero(v_alive))
                if n_alive == 0:
                    break
                if n_alive < 0.7 * m:
                    keep = np.flatnonzero(v_alive)
                    if origin is None:
                        final[:m] = v_nxt
                        origin = keep
                    else:
                        final[origin] = v_nxt
                        origin = origin.take(keep)
                    m = n_alive
                    # The survivors move into fresh arrays, so no view
                    # below can alias them.
                    v_node = v_nxt.take(keep)
                    v_base = v_base.take(keep)
                    v_nxt, v_step, v_feat, v_xidx = _live(m, nxt, step, feat, xidx)
                    v_vals, v_thr, v_go, v_alive = _live(m, vals, thr, go, alive)
                    continue
            # The two cursor buffers trade roles instead of copying.
            v_node, v_nxt = v_nxt, v_node
        if origin is None:
            resting = v_node
        else:
            final[origin] = v_node
            resting = final[:lanes]
        leaf = flat.value.take(resting, out=vals[:lanes], mode="clip").reshape(
            c, n_trees
        )
        if flat.n_groups > 1:
            # Grouped segment-sum via bincount on a composite
            # (sample, class) index — deterministic addition order, so
            # results stay bit-identical to the scalar kernel's.
            K = flat.n_groups
            gidx = (
                np.arange(c, dtype=np.int64)[:, None] * K
                + flat.tree_group[None, :]
            ).ravel()
            out[start:stop] = np.bincount(
                gidx, weights=leaf.astype(np.float64).ravel(), minlength=c * K
            ).reshape(c, K)
        else:
            out[start:stop] = leaf.sum(axis=1, dtype=np.float64)
    return out


@dataclass
class NativeBreakdown:
    """Wall-clock decomposition of one native batch.

    Mirrors the simulator's ``ExecutionBreakdown`` duck type: ``total``
    and ``to_dict`` for :class:`~repro.obs.report.BatchRecord`, and a
    ``t_global_reduce`` tail the serving layer splits into its
    kernel/reduction stage spans.
    """

    t_traversal: float = 0.0
    t_global_reduce: float = 0.0

    @property
    def total(self) -> float:
        return self.t_traversal + self.t_global_reduce

    def to_dict(self) -> dict:
        return {
            "t_traversal": self.t_traversal,
            "t_global_reduce": self.t_global_reduce,
            "total": self.total,
            "time_domain": TIME_DOMAIN_WALL,
        }


def _wall_result(cls, strategy, predictions, breakdown, batch_size, **extra):
    """A wall-clock batch in the strategy-result shape the recorder reads
    (no simulated traffic, threads or blocks)."""
    return cls(
        strategy=strategy,
        predictions=predictions,
        breakdown=breakdown,
        counters=TrafficCounters(),
        per_thread_steps=np.zeros(0, dtype=np.int64),
        n_blocks=0,
        threads_per_block=0,
        batch_size=batch_size,
        **extra,
    )


class NativeEngine(LayoutEngine):
    """Vectorised wall-clock execution of converted forest layouts.

    Satisfies the shared :class:`~repro.core.base.Engine` surface.
    Construction from a forest runs the *same* conversion stages as
    :class:`TahoeEngine` (via :func:`~repro.core.engine.convert_forest`)
    under the *same* conversion key, so the two backends trade finished
    layouts freely; stage 5 ("copy to device") builds the flat native
    arrays instead of the simulated GPU image.

    Args:
        forest: trained forest to convert and flatten.
        spec: GPU model used for the simulated-GPU half of the hardware
            ranking (the §6 candidate the native target is compared to).
        config: conversion knobs shared with the Tahoe pipeline.
        hardware: pre-measured §6 hardware parameters (for the ranking).
        recorder: telemetry sink (built from ``config.obs`` otherwise).
    """

    report_name = "native"
    report_meta = {
        "time_domain": TIME_DOMAIN_WALL,
        "kernel": "numba" if HAVE_NUMBA else "numpy",
        "numba": HAVE_NUMBA,
    }
    time_domain = TIME_DOMAIN_WALL

    @property
    def kernel(self) -> str:
        """The traversal kernel this process runs: ``numba`` or ``numpy``."""
        return self.report_meta["kernel"]

    @staticmethod
    def _measure_hardware(spec: GPUSpec) -> HardwareParams:
        return measure_hardware_parameters(spec)

    def _ship(self, layout: ForestLayout) -> None:
        # Stage 5 for this backend: "copy to device" is building the flat
        # native arrays the kernels traverse.
        flatten_native(layout)

    def _install(self, layout: ForestLayout) -> None:
        # Replicas adopting one layout object share its flattening.
        self.flat = flatten_native(layout)
        self._cost_model: NativeCostModel | None = None  # refit for the new shape

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _leaf_sums(self, X: np.ndarray) -> np.ndarray:
        """Per-sample float64 leaf-value sums via this process's kernel.

        Returns ``(n,)`` for single-output forests and ``(n, n_classes)``
        for multiclass ones (what :func:`finalize_predictions` expects).
        """
        flat = self.flat
        multi = flat.n_groups > 1
        if _traverse_scalar_jit is None:
            shape = (X.shape[0], flat.n_groups) if multi else X.shape[0]
            return _traverse_numpy(X, flat, np.empty(shape, dtype=np.float64))
        out = np.zeros((X.shape[0], flat.n_groups), dtype=np.float64)
        _traverse_scalar_jit(X, *flat.scalar_args(), out)
        return out if multi else out[:, 0]

    def cost_model(self) -> NativeCostModel:
        """The fitted wall-clock cost of one dispatch (fitted on first
        call, once per layout), which the hardware ranking of a reported
        :meth:`predict` reads.

        The probes time this engine's own :meth:`predict`, the path a
        serving dispatch pays: input checks, finalisation, batch
        recording and result assembly are exactly what makes a small
        batch a bad deal, so a fit of the kernel alone would understate
        the fixed cost.  They record into a throwaway recorder, so they
        never show in batch telemetry.
        """
        if self._cost_model is None:
            recorder = self.recorder
            self.recorder = type(recorder)()
            try:
                self._cost_model = calibrate_native_model(
                    self.predict, n_attributes=self.forest.n_attributes, kernel=self.kernel
                )
            finally:
                self.recorder = recorder
        return self._cost_model

    def predict(self, X: np.ndarray, *, report: bool = False, **kwargs) -> EngineResult:
        """:meth:`LayoutEngine.predict`.  A reported call fits the cost
        model before its batch loop: the fit's probes are ``predict``
        calls of their own, and must not run inside this one."""
        if report:
            self.cost_model()
        return super().predict(X, report=report, **kwargs)

    def _run_batch(self, X, start, stop, index, collect_level_stats, report) -> StrategyResult:
        """Traverse + reduce one batch, wall-clock timed per phase.

        ``total_time`` (and therefore ``throughput``) is **wall-clock**
        seconds.  ``collect_level_stats`` is ignored (there is no
        simulated memory system to collect from).  The host CPU is the
        only target this engine executes on, so no per-batch target is
        chosen: with ``report=True`` the hardware ranking (native CPU vs
        the best simulated-GPU strategy, at the batch size) is evaluated
        once, outside the timed region, and recorded as one decision
        closed by the first batch's measured time.
        """
        decision = None
        if report and index == 0:
            ranked = rank_hardware_targets(
                self.cost_model(), self.layout, stop - start, self.spec, self.hardware
            )
            chosen = next(t for t in ranked if t.name == "native_cpu")
            decision = self.recorder.record_decision(0, stop - start, ranked, chosen)
        t0 = time.perf_counter()
        leaf_sum = self._leaf_sums(X[start:stop])
        t1 = time.perf_counter()
        predictions = finalize_predictions(self.forest, leaf_sum)
        t2 = time.perf_counter()
        result = _wall_result(
            StrategyResult,
            "native",
            predictions,
            NativeBreakdown(t_traversal=t1 - t0, t_global_reduce=t2 - t1),
            stop - start,
        )
        self.recorder.record_batch(index, result, decision)
        return result

    def _explain_batch(self, X, start, stop, index):
        """Wall-clock SHAP attributions via the vectorised path kernel:
        the same :func:`~repro.explain.kernel.compute_shap` the simulated
        strategies run, timed for real, so explain throughput from this
        backend is comparable to its predict throughput and never to
        simulated numbers."""
        from repro.explain.kernel import compute_shap
        from repro.explain.paths import path_set_for_layout

        ps = path_set_for_layout(self.layout)
        t0 = time.perf_counter()
        phi, base, margins = compute_shap(ps, X[start:stop])
        breakdown = NativeBreakdown(t_traversal=time.perf_counter() - t0)
        result = _wall_result(
            ExplainStrategyResult,
            "native_explain",
            margins,
            breakdown,
            stop - start,
            attributions=phi,
            base_values=base,
        )
        self.recorder.record_batch(index, result)
        return result

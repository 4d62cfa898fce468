"""Exact TreeSHAP over a :class:`~repro.explain.paths.PathSet`, tabulated
per path and one-fraction pattern.

GPUTreeShap decomposes TreeSHAP into independent root→leaf paths: each
path adds, for every one of its ``d`` unique features, a contribution
computed by the permutation-weight recurrences EXTEND and UNWIND.  The
only sample-dependent input to those recurrences is the path's
*one-fraction pattern* — which of its ``d`` unique-feature slots the
sample satisfies — so a path has at most ``2^d`` distinct answers.

:func:`path_contributions` is the one implementation of the
recurrences.  It runs over *lanes*: a lane is either one of the ``2^d``
patterns (a table lane) or one sample (a sample lane), and the same
float operations run in the same order for both.  When a path set is
built, :func:`build_shap_tables` evaluates it once over every pattern of
each shallow depth group and keeps the results as a flat contribution
table with each entry's output column.  Groups are tabulated shallowest
first while ``d <= TABLE_MAX_DEPTH`` and the tables fit in
``TABLE_MAX_BYTES``.  A call to :func:`compute_shap` then does, per row
block:

1. edge satisfaction — does each row take each tabulated path edge's
   direction;
2. slot bits — the AND of each unique-feature slot's edges;
3. a pattern code per (path, row) — bit ``j`` is slot ``j``'s bit;
4. a gather of every tabulated contribution at its pattern code;
5. one ``np.bincount`` of all contributions into the attribution bins.

The remaining, deeper groups run the same recurrence with rows as
lanes, one group at a time, each reading only its own slots' edges and
adding its contributions onto the table sums with ``np.add.at``.  Every
part sizes its own row block to ``BLOCK_CONTRIBUTIONS`` contributions
(each row adds one per slot of the part), so scratch memory stays
bounded whatever the batch, and a small deep group still runs its
O(d²) recurrence over many rows at once.

Bit-identity: every bin first receives its tabulated addends in
(depth group, slot ``j``, path) order, summed by ``bincount`` in input
order starting from 0, then its sample-lane addends in the same order
(tabulated groups are always the shallower ones).  Every attribution is
therefore the same float sum, in the same order, as the former
per-sample kernel's sequence of ``np.add.at`` calls produced, which
``tests/goldens/shap.json`` pins.

Exactness: attributions satisfy the SHAP *efficiency* axiom by
construction —

    ``base_values[k] + Σ_f phi[i, f, k] == raw margin of sample i``

up to float64 rounding, where the raw margin is the engine's pre-link
prediction (leaf sums after learning-rate / averaging finalisation but
before sigmoid/softmax).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.explain.paths import PathSet

__all__ = [
    "ShapTables",
    "build_shap_tables",
    "compute_shap",
    "path_contributions",
    "shap_check_efficiency",
]

#: Deepest unique-feature depth whose paths are tabulated.  A path of
#: depth ``d`` costs ``d * 2^d`` table entries.  At 6 every figure-5
#: forest's table stays under 30 MB; 7 and 8 still speed up the deep
#: ensembles but grow hepmass's table to 66 and 140 MB
#: (docs/performance.md, "Tabulated SHAP paths").  Pattern codes are
#: one byte, so the cap must stay <= 8.
TABLE_MAX_DEPTH = 6

#: Host bytes the tables of one path set may take.  Depth groups are
#: tabulated shallowest first until the next one would pass this; it
#: and every deeper group run over sample lanes.  At 32 MiB every
#: figure-5 forest keeps all groups up to the depth cap (hepmass, the
#: largest, takes 27 MB); a 1000-tree depth-6 ensemble would stop
#: before its d=6 group instead of holding about 200 MB.
TABLE_MAX_BYTES = 32 << 20

#: Contributions per row block of each part (and lanes per table-build
#: block).  Bounds scratch memory whatever the batch; 2^17 (1 MB per
#: float64 array) beat 2^14-2^19 at 64 and 256 rows on covtype, letter
#: and year.
BLOCK_CONTRIBUTIONS = 1 << 17


def path_contributions(z: np.ndarray, o: np.ndarray, val: np.ndarray) -> np.ndarray:
    """EXTEND/UNWIND for ``P`` paths of unique depth ``d`` over ``L`` lanes.

    ``z`` is ``(d, P, 1)`` zero fractions, ``o`` is ``(d, P or 1, L)``
    one fractions (0.0 or 1.0), ``val`` is ``(P, 1)`` leaf values.
    Returns ``(d, P, L)``: the contribution of each path's slot ``j`` to
    its feature's attribution in each lane.
    """
    d, P, _ = z.shape
    L = o.shape[2]
    # EXTEND: grow the permutation-weight polynomial one unique feature
    # at a time.  m[i] holds the weight of subsets of size i among the
    # features added so far.
    m = np.zeros((d + 1, P, L), dtype=np.float64)
    m[0] = 1.0
    for k in range(1, d + 1):
        zk = z[k - 1]
        ok = o[k - 1]
        for i in range(k - 1, -1, -1):
            m[i + 1] += ok * m[i] * ((i + 1) / (k + 1))
            m[i] *= zk * ((k - i) / (k + 1))

    # UNWIND each feature j out of the polynomial and sum the
    # permutation weights it leaves behind.
    out = np.empty((d, P, L), dtype=np.float64)
    for j in range(d):
        zj = z[j]
        oj = o[j]
        one = oj > 0.5
        next_one = m[d]
        total = np.zeros((P, L), dtype=np.float64)
        for i in range(d - 1, -1, -1):
            tmp = next_one * ((d + 1) / (i + 1))
            tot1 = total + tmp
            next1 = m[i] - tmp * zj * ((d - i) / (d + 1))
            tot0 = total + m[i] / (zj * ((d - i) / (d + 1)))
            total = np.where(one, tot1, tot0)
            next_one = np.where(one, next1, next_one)
        out[j] = (oj - zj) * val * total
    return out


@dataclass
class _SlotReader:
    """Reads one subset of a path set's slots from a row block.

    Holds the subset's edges, slot by slot, with edge tests folded so a
    row satisfies a numeric edge iff ``(x < threshold) ^ flip`` and a
    NaN edge iff ``nan``.
    """

    feature: np.ndarray  # int (E,) attribute of each edge
    threshold: np.ndarray  # (E,) split value
    flip: np.ndarray  # bool (E,) flip == expect_left
    nan: np.ndarray  # bool (E,) default_left == expect_left
    cat: np.ndarray  # int64 positions of categorical edges
    cat_offset: np.ndarray  # their bitset offsets into ``cat_bits``
    cat_count: np.ndarray  # their bitset word counts
    first: np.ndarray  # int64 (S,) position of each slot's first edge
    more: list[tuple[np.ndarray, np.ndarray]]  # (slots, edges) per rank >= 1

    def bits(self, ps: PathSet, X: np.ndarray) -> np.ndarray:
        """(S, c) bool: does each row satisfy every edge of each slot?"""
        v = np.take(X.T, self.feature, axis=0)  # (E, c) attribute values
        sat = (v < self.threshold[:, None]) ^ self.flip[:, None]
        if self.cat.size:
            cat = self.cat
            vv = v[cat].astype(np.float64)
            code = np.where(np.isfinite(vv) & (vv >= 0), vv, -1.0).astype(np.int64)
            word = code >> 5
            valid = (code >= 0) & (word < self.cat_count[:, None].astype(np.int64))
            slot = self.cat_offset[:, None] + np.where(valid, word, 0)
            bits = ps.cat_bits[slot].astype(np.int64)
            member = valid & (((bits >> (code & 31)) & 1) == 1)
            sat[cat] = member ^ self.flip[cat][:, None]
        missing = np.isnan(v)
        if missing.any():
            sat = np.where(missing, self.nan[:, None], sat)
        # AND each slot's edges: its first edge, then the r-th edge of
        # every slot that has one.
        out = np.take(sat, self.first, axis=0)
        for slots, edges in self.more:
            out[slots] &= np.take(sat, edges, axis=0)
        return out


def _slot_reader(ps: PathSet, slots: np.ndarray) -> _SlotReader:
    """A reader of ``slots`` (path-set slot indices), in that order."""
    count = ps.slot_edge_start[slots + 1] - ps.slot_edge_start[slots]
    first = np.cumsum(count) - count
    rank = np.arange(count.sum()) - np.repeat(first, count)
    edges = np.repeat(ps.slot_edge_start[slots], count) + rank
    owner = np.repeat(np.arange(slots.size), count)
    cat = np.flatnonzero(ps.edge_cat_offset[edges] >= 0)
    return _SlotReader(
        feature=ps.edge_feature[edges],
        threshold=ps.edge_threshold[edges],
        flip=(ps.edge_flip == ps.edge_expect_left)[edges],
        nan=(ps.edge_default_left == ps.edge_expect_left)[edges],
        cat=cat,
        cat_offset=ps.edge_cat_offset[edges[cat]],
        cat_count=ps.edge_cat_count[edges[cat]],
        first=first,
        more=[
            (owner[rank == r], np.flatnonzero(rank == r))
            for r in range(1, int(count.max(initial=0)))
        ],
    )


@dataclass
class _SampleLaneGroup:
    """Paths of one depth that are not tabulated, run over sample lanes."""

    reader: _SlotReader  # the group's slots in (j, path) order
    zero: np.ndarray  # float64 (d, P, 1)
    value: np.ndarray  # float64 (P, 1)
    cols: np.ndarray  # int64 (d, P, 1) output column feature*K + class


@dataclass
class ShapTables:
    """A path set's precomputed SHAP contributions and routing helpers.

    ``reader`` reads the slots of every tabulated path, path by path.
    Table entries are ordered by (depth group, slot ``j``, path); entry
    ``e`` covers ``2^d`` consecutive floats of ``table`` starting at
    ``entry_offset[e]``, one per pattern code.  ``deep`` holds the
    untabulated depth groups, all deeper than every tabulated one.
    """

    reader: _SlotReader
    code_slots: list[np.ndarray]  # int64 (T,) reader slot j of each tabulated path
    code_mask: np.ndarray  # uint8 (T, 1) (1 << d) - 1
    entry_path: np.ndarray  # int64 tabulated-path index of each entry
    entry_offset: np.ndarray  # int64 start of the entry's table run
    entry_col: np.ndarray  # int64 output column feature*K + class
    table: np.ndarray  # float64 contributions
    deep: list[_SampleLaneGroup] = field(default_factory=list)


def build_shap_tables(ps: PathSet) -> ShapTables:
    """Tabulate the shallow depth groups over their patterns.

    Groups are taken shallowest first while ``d <= TABLE_MAX_DEPTH``
    and the tables built so far stay within ``TABLE_MAX_BYTES``; the
    first group that fails either test and every deeper one run over
    sample lanes.  Keeping the tabulated groups a prefix keeps every
    bin's addends in depth-group order.
    """
    depth = np.diff(ps.path_slot_start)
    K = ps.n_classes
    firsts, depths, paths, offsets, cols, tables = [], [], [], [], [], []
    deep: list[_SampleLaneGroup] = []
    n_tabulated = 0
    base = 0
    for d in np.unique(depth[depth > 0]).tolist():
        pidx = np.flatnonzero(depth == d)
        slots = (ps.path_slot_start[pidx][:, None] + np.arange(d)).T  # (d, P)
        zero = ps.slot_zero[slots][:, :, None]
        value = ps.path_value[pidx][:, None]
        col = ps.slot_feature[slots].astype(np.int64) * K + ps.path_group[pidx]
        n_codes = 1 << d
        if deep or d > TABLE_MAX_DEPTH or (base + col.size * n_codes) * 8 > TABLE_MAX_BYTES:
            reader = _slot_reader(ps, slots.ravel())
            deep.append(_SampleLaneGroup(reader, zero, value, col[:, :, None]))
            continue
        bits = (np.arange(n_codes) >> np.arange(d)[:, None]) & 1
        ones = bits.astype(np.float64)[:, None, :]  # (d, 1, 2^d)
        table = np.empty((d, pidx.size, n_codes), dtype=np.float64)
        step = max(1, BLOCK_CONTRIBUTIONS // (n_codes * (d + 1)))
        for lo in range(0, pidx.size, step):
            hi = lo + step
            table[:, lo:hi] = path_contributions(zero[:, lo:hi], ones, value[lo:hi])
        tables.append(table.ravel())
        firsts.append(ps.path_slot_start[pidx])
        depths.append(np.full(pidx.size, d))
        tabulated = n_tabulated + np.arange(pidx.size, dtype=np.int64)
        paths.append(np.broadcast_to(tabulated, (d, pidx.size)).ravel())
        offsets.append(base + np.arange(col.size, dtype=np.int64) * n_codes)
        cols.append(col.ravel())
        n_tabulated += pidx.size
        base += table.size

    def joined(parts: list, dtype) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

    # The reader lists each tabulated path's slots in a row.  Slot j of
    # a path shallower than j+1 is some other path's slot; ``code_mask``
    # clears the bit it sets.
    first = joined(firsts, np.int64)
    count = joined(depths, np.int64)
    start = np.cumsum(count) - count
    reader = _slot_reader(ps, np.repeat(first - start, count) + np.arange(count.sum()))
    last = max(int(count.sum()) - 1, 0)
    return ShapTables(
        reader=reader,
        code_slots=[np.minimum(start + j, last) for j in range(int(count.max(initial=0)))],
        code_mask=((1 << count) - 1).astype(np.uint8)[:, None],
        entry_path=joined(paths, np.int64),
        entry_offset=joined(offsets, np.int64),
        entry_col=joined(cols, np.int64),
        table=joined(tables, np.float64),
        deep=deep,
    )


def _table_block(ps: PathSet, X: np.ndarray) -> np.ndarray:
    """(c, F*K) sums of one row block's tabulated contributions."""
    t = ps.tables
    c = X.shape[0]
    FK = ps.n_features * ps.n_classes
    sat = t.reader.bits(ps, X).view(np.uint8)
    # Bit j of a tabulated path's pattern code is its slot j's bit.
    code = np.take(sat, t.code_slots[0], axis=0)
    for j, slots in enumerate(t.code_slots[1:], 1):
        code |= np.take(sat, slots, axis=0) << j
    code = np.take(code & t.code_mask, t.entry_path, axis=0)  # (entries, c)
    # Entries are in (group, j, path) order, so every bin gets its
    # addends in that order.
    weights = np.take(t.table, t.entry_offset[:, None] + code)
    bins = t.entry_col[:, None] + np.arange(c, dtype=np.int64) * FK
    return np.bincount(bins.ravel(), weights.ravel(), minlength=c * FK).reshape(c, FK)


def compute_shap(ps: PathSet, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-feature SHAP values for every sample.

    Returns ``(phi, base_values, margins)`` where ``phi`` has shape
    ``(n, n_features, n_classes)``, ``base_values`` is the float64
    per-class expected margin, and ``margins`` is the reconstructed raw
    margin ``base_values + phi.sum(axis=1)`` (shape ``(n, K)``).
    """
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    F, K = ps.n_features, ps.n_classes
    t = ps.tables
    phi = np.zeros((n, F * K), dtype=np.float64)
    if t.entry_col.size:
        rows = max(1, BLOCK_CONTRIBUTIONS // t.entry_col.size)
        for start in range(0, n, rows):
            phi[start : start + rows] = _table_block(ps, X[start : start + rows])
    # The untabulated groups follow, deepest last, each adding onto the
    # table sums in (j, path) order over its own row blocks.
    flat = phi.ravel()
    for g in t.deep:
        d, P, _ = g.zero.shape
        rows = max(1, BLOCK_CONTRIBUTIONS // (d * P))
        for start in range(0, n, rows):
            Xb = X[start : start + rows]
            ones = g.reader.bits(ps, Xb).reshape(d, P, -1).astype(np.float64)
            bins = g.cols + np.arange(start, start + Xb.shape[0], dtype=np.int64) * (F * K)
            np.add.at(flat, bins.ravel(), path_contributions(g.zero, ones, g.value).ravel())
    phi = phi.reshape(n, F, K)
    margins = ps.base_values[None, :] + phi.sum(axis=1)
    return phi, ps.base_values.copy(), margins


def shap_check_efficiency(
    ps: PathSet, phi: np.ndarray, raw_margin: np.ndarray, rtol: float = 1e-9
) -> None:
    """Assert the efficiency axiom against an engine's raw margin."""
    margin = np.asarray(raw_margin, dtype=np.float64)
    if margin.ndim == 1:
        margin = margin[:, None]
    recon = ps.base_values[None, :] + phi.sum(axis=1)
    np.testing.assert_allclose(recon, margin, rtol=rtol, atol=1e-9)

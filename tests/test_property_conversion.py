"""Forest-at-once conversion against the per-tree oracle.

Random forests mix single-leaf trees, chains, bushy trees of depths that
are no multiple of the token stride, zero visit counts and categorical
nodes.  Under every token length, checksum length and chunk count, the
flat-array pipeline must reproduce the per-tree formulation of
``tests/conversion_oracle.py`` exactly: node swaps, probabilities, heap
positions, tokens and weights, checksums, chunk hashes, collision counts,
buckets and the tree order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TahoeConfig
from repro.core.engine import convert_forest
from repro.formats.layout import heap_positions
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.hashing.lsh import lsh_collisions, order_trees_by_similarity
from repro.hashing.simhash import forest_checksums, tokenize_forest, tokenize_tree
from repro.trees.flat import FlatForest
from repro.trees.forest import Forest
from repro.trees.io import forest_from_dict
from repro.trees.tree import LEAF, DecisionTree
from tests import conversion_oracle as oracle

L_HASHES = (32, 64, 128, 192, 256)


def _grow(rng: np.random.Generator, kind: str) -> DecisionTree:
    feature, left, right, visits, cat = [], [], [], [], []
    max_depth = int(rng.integers(1, 14))

    def grow(depth: int) -> int:
        node = len(feature)
        feature.append(LEAF)
        left.append(LEAF)
        right.append(LEAF)
        visits.append(int(rng.integers(0, 4)) if rng.random() < 0.2 else int(rng.integers(1, 500)))
        cat.append(-1)
        split = kind != "leaf" and depth < max_depth
        if kind == "bushy":
            split = split and rng.random() < 0.85 - 0.05 * depth
        if not split:
            return node
        feature[node] = int(rng.integers(0, 5))
        if rng.random() < 0.15:
            cat[node] = 0
        if kind == "chain" and rng.random() < 0.5:
            right[node] = grow(max_depth)  # a leaf
            left[node] = grow(depth + 1)
        elif kind == "chain":
            left[node] = grow(max_depth)
            right[node] = grow(depth + 1)
        else:
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    n = len(feature)
    has_cat = any(c >= 0 for c in cat)
    return DecisionTree(
        feature=np.array(feature),
        threshold=rng.standard_normal(n),
        left=np.array(left),
        right=np.array(right),
        value=rng.standard_normal(n),
        default_left=rng.random(n) < 0.5,
        visit_count=np.array(visits),
        flip=rng.random(n) < 0.1,
        cat_offset=np.array(cat) if has_cat else None,
        cat_count=np.where(np.array(cat) >= 0, 1, 0) if has_cat else None,
        cat_bits=np.array([0b1011], dtype=np.uint32) if has_cat else None,
    )


@st.composite
def forests(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    kinds = draw(st.lists(st.sampled_from(["leaf", "chain", "bushy", "bushy"]), min_size=1, max_size=7))
    rng = np.random.default_rng(seed)
    return Forest(trees=[_grow(rng, kind) for kind in kinds], n_attributes=5)


@st.composite
def similarity_params(draw):
    t_nodes = draw(st.integers(2, 8))
    l_hash = draw(st.sampled_from(L_HASHES))
    m_chunks = draw(st.sampled_from([m for m in range(1, l_hash + 1) if l_hash % m == 0]))
    return t_nodes, l_hash, m_chunks


@given(forests())
@settings(max_examples=60, deadline=None)
def test_stage_one_and_swap_match_oracle(forest):
    flat = FlatForest.build(forest)
    rearranged = rearrange_forest_nodes(flat)
    for t, tree in enumerate(forest.trees):
        a, b = flat.offsets[t], flat.offsets[t + 1]
        p_left, p_right = oracle.edge_probabilities(tree)
        np.testing.assert_array_equal(flat.p_left[a:b], p_left)
        np.testing.assert_array_equal(flat.p_right[a:b], p_right)
        np.testing.assert_array_equal(flat.node_prob[a:b], oracle.node_probabilities(tree))
        np.testing.assert_array_equal(flat.position[a:b], oracle.heap_positions(tree))
        want = oracle.rearrange(tree)
        got = rearranged.trees[t]
        for name in ("left", "right", "flip", "default_left"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(rearranged.position[a:b], oracle.heap_positions(want))
        level, slot = heap_positions(want)
        np.testing.assert_array_equal(slot + (1 << level.astype(np.int64)), oracle.heap_positions(want))
        np.testing.assert_array_equal(tree.node_probabilities(), oracle.node_probabilities(tree))


@given(forests(), similarity_params(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_similarity_matches_oracle(forest, params, include_features):
    t_nodes, l_hash, m_chunks = params
    flat = rearrange_forest_nodes(FlatForest.build(forest))
    trees = flat.trees
    tokens = tokenize_forest(flat, t_nodes)
    checksums = forest_checksums(tokens, l_hash)
    for t, tree in enumerate(trees):
        want = oracle.tokenize(tree, t_nodes)
        assert [(tok.content, tok.weight) for tok in tokens.of_tree(t)] == want
        got = tokenize_tree(tree, t_nodes, include_features=include_features)
        assert [(tok.content, tok.weight) for tok in got] == oracle.tokenize(
            tree, t_nodes, include_features=include_features
        )
        np.testing.assert_array_equal(checksums[t], oracle.checksum(tree, t_nodes, l_hash))
    table = lsh_collisions(flat, t_nodes=t_nodes, l_hash=l_hash, m_chunks=m_chunks)
    counts, buckets = oracle.collisions(trees, t_nodes, l_hash, m_chunks)
    np.testing.assert_array_equal(table.counts, counts)
    assert table.buckets == buckets
    assert order_trees_by_similarity(table) == order_trees_by_similarity(counts)


def test_one_sha1_per_distinct_token(monkeypatch):
    """A Higgs conversion hashes each of its 423 distinct tokens once
    (the per-tree pipeline hashed all 16,113 token instances)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / ".cache"
    forest = forest_from_dict(json.loads((path / "Higgs-s7-k300-n6000.json").read_text()))
    rearranged = rearrange_forest_nodes(forest)
    instances = [content for tree in rearranged.trees for content, _ in oracle.tokenize(tree, 4)]
    assert (len(set(instances)), len(instances)) == (423, 16_113)
    calls = []
    real = hashlib.sha1

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha1", counting)
    convert_forest(forest, TahoeConfig())
    assert len(calls) == 423

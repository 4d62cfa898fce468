"""The forest-wide node block and the arrays derived from it.

A converted layout owns one :class:`~repro.trees.flat.FlatForest` in
tree-storage order.  The native traversal arrays (``flatten_native``),
the simulator's flat image (``flatten_layout``) and the SHAP path set
(``path_set_for_layout``) are each derived from it in one vectorised
pass; every field must equal what the per-tree builders in
:mod:`tests.flat_oracles` produce from the layout's trees — on the
fifteen fig5 forests, the categorical and multiclass fixtures, and
hypothesis forests — whether the layout was converted cold or loaded
from a ``.tahoe`` artifact.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TahoeConfig
from repro.core.engine import convert_forest
from repro.core.native import flatten_native
from repro.explain.paths import path_set_for_layout
from repro.formats.reorg import build_reorg_layout
from repro.gpusim.trace import flatten_layout
from repro.modelstore import import_model, load_packed, pack_layout
from tests import flat_oracles
from tests.test_conversion_golden import FORESTS, _forest
from tests.test_property_native import _draw_forest

FIXTURES = Path(__file__).parent / "fixtures"


def _assert_fields_equal(got, want) -> None:
    for f in dataclasses.fields(want):
        if not f.compare:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray) or isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def _assert_derivations_match(layout, paths: bool = True) -> None:
    _assert_fields_equal(flatten_native(layout), flat_oracles.native_arrays(layout))
    _assert_fields_equal(flatten_layout(layout), flat_oracles.simulator_arrays(layout))
    if paths:
        _assert_fields_equal(path_set_for_layout(layout), flat_oracles.path_set(layout.forest))


def _packed(layout, tmp_path):
    path = tmp_path / "block.tahoe"
    pack_layout(
        layout, path, engine="tahoe", spec_name="P100", conversion_key=(), source_fingerprint=""
    )
    return load_packed(path).layout


@pytest.mark.parametrize("name", FORESTS)
def test_fig5_forests(name, tmp_path):
    forest = _forest(name)
    layout = convert_forest(forest, TahoeConfig())[0]
    _assert_derivations_match(layout)
    _assert_derivations_match(_packed(layout, tmp_path), paths=False)
    _assert_derivations_match(build_reorg_layout(forest), paths=False)


@pytest.mark.parametrize(
    "fixture", ["xgboost_multiclass_model.json", "lightgbm_categorical_model.txt"]
)
@pytest.mark.parametrize("node_width", [None, 8])
def test_fixture_forests(fixture, node_width, tmp_path):
    forest = import_model(FIXTURES / fixture)
    layout = convert_forest(forest, TahoeConfig(node_width=node_width))[0]
    _assert_derivations_match(layout)
    _assert_derivations_match(_packed(layout, tmp_path))


@st.composite
def _forests(draw):
    """Property-test forests; some trees without bitsets drop their
    bitset arrays, so a forest can mix trees with and without them."""
    forest, _, with_cat = _draw_forest(draw, ragged=draw(st.booleans()))
    if with_cat:
        for tree in forest.trees:
            if not tree.has_categorical and draw(st.booleans()):
                tree.cat_offset = tree.cat_count = tree.cat_bits = None
    return forest


@given(forest=_forests(), rearrange=st.booleans())
@settings(max_examples=60, deadline=None)
def test_hypothesis_forests(forest, rearrange, tmp_path_factory):
    config = TahoeConfig(node_rearrangement=rearrange, tree_rearrangement=rearrange)
    layout = convert_forest(forest, config)[0]
    _assert_derivations_match(layout)
    _assert_derivations_match(_packed(layout, tmp_path_factory.mktemp("block")))


def test_depths_come_from_the_block(small_forest):
    layout = convert_forest(small_forest, TahoeConfig())[0]
    native = flatten_native(layout)
    assert native.max_depth == small_forest.max_depth()
    np.testing.assert_array_equal(layout.block.tree_depths(), layout.forest.tree_depths())


def test_layout_trees_view_the_block(small_forest):
    layout = convert_forest(small_forest, TahoeConfig())[0]
    block = layout.block
    assert block.forest is layout.forest
    for t, tree in enumerate(layout.forest.trees):
        a = int(block.offsets[t])
        assert np.shares_memory(tree.feature, block.feature)
        np.testing.assert_array_equal(tree.left, block.local_left[a : a + tree.n_nodes])
        np.testing.assert_array_equal(
            layout.node_address[t], layout.address[a : a + tree.n_nodes]
        )

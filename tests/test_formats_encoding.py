"""Packed node encodings: bit-exact round trips and differential identity.

Three layers of guarantees, from words up to engines:

* pack/unpack round trips are bit-exact for every word width, including
  the fid boundary values at each capacity edge (hypothesis-driven),
* quantised threshold codecs obey the routing contract — decoded
  thresholds never fall below the original (``t' >= t`` for ceil
  rounding), decode∘encode∘decode is a fixed point, and NaN samples
  still follow the default path,
* engines are differential: every lossless packed width produces
  predictions ``array_equal`` to the unpacked baseline on both layouts
  (adaptive and reorg) and all three engines, including categorical and
  multiclass forests, and the cache keys keep the variants apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TahoeConfig, TahoeEngine, convert_forest
from repro.core.fil import FILEngine, fil_conversion_key
from repro.core.native import NativeEngine
from repro.formats import (
    build_reorg_layout,
    make_encoding,
    pack_node_words,
    unpack_node_words,
)
from repro.formats.encoding import (
    THRESHOLD_MODES,
    WIDTH_BITS,
    NodeEncoding,
    apply_encoding,
    decode_field,
    encode_field,
    make_grid,
    max_attribute_index,
    resolve_width_bits,
)
from repro.gpusim.specs import GPU_SPECS
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree

# ----------------------------------------------------------------------
# Word packing
# ----------------------------------------------------------------------


def _tree_with_fids(fids: list[int], n_attributes: int) -> DecisionTree:
    """A left-spine tree whose decision nodes test the given fids."""
    n = len(fids)
    feature = np.array(fids + [LEAF] * (n + 1), dtype=np.int32)
    left = np.full(2 * n + 1, LEAF, dtype=np.int32)
    right = np.full(2 * n + 1, LEAF, dtype=np.int32)
    for i in range(n):
        left[i] = i + 1 if i + 1 < n else n
        right[i] = n + 1 + i
    threshold = np.zeros(2 * n + 1, dtype=np.float32)
    threshold[:n] = np.linspace(-1.0, 1.0, n, dtype=np.float32)
    value = np.arange(2 * n + 1, dtype=np.float32)
    default_left = np.arange(2 * n + 1) % 2 == 0
    visit = np.linspace(2 * n + 2, 2, 2 * n + 1).astype(np.int64)
    flip = np.arange(2 * n + 1) % 3 == 0
    return DecisionTree(
        feature=feature, threshold=threshold, left=left, right=right,
        value=value, default_left=default_left, visit_count=visit, flip=flip,
    )


@given(
    bits=st.sampled_from(WIDTH_BITS),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_round_trip_every_width(bits, data):
    enc = NodeEncoding(bits, "f32")
    cap = enc.fid_capacity
    # Always include both capacity edges alongside random fids.
    fids = [0, cap - 1] + data.draw(
        st.lists(st.integers(0, cap - 1), min_size=1, max_size=12)
    )
    tree = _tree_with_fids(fids, cap)
    words = pack_node_words(tree, enc)
    assert words.dtype == enc.word_dtype
    fields = unpack_node_words(words, enc)
    np.testing.assert_array_equal(fields["feature"], tree.feature)
    np.testing.assert_array_equal(fields["default_left"], tree.default_left)
    np.testing.assert_array_equal(fields["is_leaf"], tree.is_leaf)
    np.testing.assert_array_equal(fields["flip"], tree.flip)


@pytest.mark.parametrize(
    "bits,boundary", [(8, 32), (16, 8192), (32, 2**29)]
)
def test_fid_capacity_boundaries(bits, boundary):
    enc = NodeEncoding(bits, "f32")
    assert enc.fid_capacity == boundary
    ok = _tree_with_fids([boundary - 1], boundary)
    fields = unpack_node_words(pack_node_words(ok, enc), enc)
    assert fields["feature"][0] == boundary - 1
    if bits < 32:
        too_wide = _tree_with_fids([boundary], boundary + 1)
        with pytest.raises(ValueError, match="does not fit"):
            pack_node_words(too_wide, enc)


def test_resolve_width_bits_auto_picks_narrowest(small_forest):
    max_fid = max_attribute_index(small_forest)
    bits = resolve_width_bits(small_forest, "auto")
    assert max_fid < (1 << (bits - 3))
    if bits > 8:
        assert max_fid >= (1 << (bits - 3 - 8))
    # Explicit widths below capacity are rejected.
    wide = _tree_with_fids([8192], 8193)
    forest = Forest(trees=[wide], n_attributes=8193, task="regression",
                    aggregation="mean")
    with pytest.raises(ValueError, match="does not fit"):
        resolve_width_bits(forest, 16)


# ----------------------------------------------------------------------
# Threshold codecs
# ----------------------------------------------------------------------


@given(
    mode=st.sampled_from(["f16", "q8", "q16"]),
    values=st.lists(
        st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=2, max_size=50
    ),
)
@settings(max_examples=80, deadline=None)
def test_ceil_rounding_never_undershoots(mode, values):
    v = np.array(values, dtype=np.float32)
    grid = make_grid(v, mode)
    codes = encode_field(v, mode, grid, rounding="ceil")
    decoded = decode_field(codes, mode, grid)
    assert np.all(decoded >= v), f"{mode}: decoded below original"
    # Value-level fixed point: re-encoding the decoded image is stable.
    codes2 = encode_field(decoded, mode, grid, rounding="ceil")
    np.testing.assert_array_equal(
        decode_field(codes2, mode, grid), decoded
    )


@given(
    mode=st.sampled_from(["f16", "q8", "q16"]),
    values=st.lists(
        st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=2, max_size=50
    ),
)
@settings(max_examples=60, deadline=None)
def test_nearest_rounding_fixed_point(mode, values):
    v = np.array(values, dtype=np.float32)
    grid = make_grid(v, mode)
    decoded = decode_field(encode_field(v, mode, grid, rounding="nearest"), mode, grid)
    again = decode_field(
        encode_field(decoded, mode, grid, rounding="nearest"), mode, grid
    )
    np.testing.assert_array_equal(again, decoded)


def test_f32_mode_is_identity(small_forest):
    enc = make_encoding(small_forest, "auto", "f32")
    forest, meta = apply_encoding(small_forest, enc)
    assert meta["lossless"]
    for before, after in zip(small_forest.trees, forest.trees):
        np.testing.assert_array_equal(before.threshold, after.threshold)
        np.testing.assert_array_equal(before.value, after.value)


# ----------------------------------------------------------------------
# NaN routing, categorical, multiclass
# ----------------------------------------------------------------------


def _nan_forest() -> Forest:
    tree = DecisionTree(
        feature=np.array([0, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.5, 0, 0], dtype=np.float32),
        left=np.array([1, LEAF, LEAF], dtype=np.int32),
        right=np.array([2, LEAF, LEAF], dtype=np.int32),
        value=np.array([0, -7.0, 9.0], dtype=np.float32),
        default_left=np.array([False, True, True]),
        visit_count=np.array([10, 5, 5], dtype=np.int64),
    )
    return Forest(trees=[tree], n_attributes=1, task="regression",
                  aggregation="mean")


@pytest.mark.parametrize("bits", WIDTH_BITS)
def test_nan_default_routing_survives_packing(bits):
    forest = _nan_forest()
    X = np.array([[0.0], [1.0], [np.nan]], dtype=np.float32)
    expected = forest.predict(X)
    assert expected[2] == 9.0  # default_left=False routes NaN right
    spec = GPU_SPECS["P100"]
    config = TahoeConfig(node_width=bits)
    for engine in (TahoeEngine(forest, spec, config=config),
                   NativeEngine(forest, spec, config=config)):
        np.testing.assert_array_equal(engine.predict(X).predictions, expected)


def _categorical_forest() -> Forest:
    # Node 0 tests membership of int(x[0]) in {1, 3}; member -> left.
    tree = DecisionTree(
        feature=np.array([0, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.0, 0, 0], dtype=np.float32),
        left=np.array([1, LEAF, LEAF], dtype=np.int32),
        right=np.array([2, LEAF, LEAF], dtype=np.int32),
        value=np.array([0, 1.0, 2.0], dtype=np.float32),
        default_left=np.array([True, True, True]),
        visit_count=np.array([10, 6, 4], dtype=np.int64),
        cat_offset=np.array([0, -1, -1], dtype=np.int64),
        cat_count=np.array([1, 0, 0], dtype=np.int32),
        cat_bits=np.array([0b1010], dtype=np.uint32),
    )
    return Forest(trees=[tree], n_attributes=1, task="regression",
                  aggregation="mean")


@pytest.mark.parametrize("bits", WIDTH_BITS)
@pytest.mark.parametrize("mode", ["f32", "q8"])
def test_categorical_bitset_nodes_pack(bits, mode):
    forest = _categorical_forest()
    X = np.array([[1.0], [2.0], [3.0], [7.0], [np.nan]], dtype=np.float32)
    expected = forest.predict(X)
    enc = NodeEncoding(bits, mode)
    packed, meta = apply_encoding(forest, enc)
    # Categorical split thresholds are bitset-routed, never quantised.
    np.testing.assert_array_equal(packed.predict(X)[:4], expected[:4])
    engine = TahoeEngine(forest, GPU_SPECS["P100"],
                         config=TahoeConfig(node_width=bits, threshold_mode=mode))
    got = engine.predict(X).predictions
    np.testing.assert_array_equal(got[:4], expected[:4])


def test_multiclass_groups_survive_packing():
    rng = np.random.default_rng(4)
    trees = []
    for i in range(6):
        tree = _tree_with_fids(list(rng.integers(0, 8, size=3)), 8)
        tree.group = i % 3
        trees.append(tree)
    forest = Forest(trees=trees, n_attributes=8, task="classification",
                    aggregation="sum", n_classes=3)
    assert forest.n_classes == 3
    X = rng.standard_normal((64, 8)).astype(np.float32)
    spec = GPU_SPECS["P100"]
    expected = TahoeEngine(forest, spec).predict(X).predictions
    for bits in WIDTH_BITS:
        engine = TahoeEngine(forest, spec, config=TahoeConfig(node_width=bits))
        np.testing.assert_array_equal(engine.predict(X).predictions, expected)
        assert engine.layout.forest.trees[0].group == forest.trees[0].group


# ----------------------------------------------------------------------
# Differential: engines x layouts x widths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", [TahoeEngine, FILEngine, NativeEngine])
def test_lossless_widths_bit_identical_across_engines(
    engine_cls, small_forest, test_X, p100
):
    forest = small_forest
    baseline = engine_cls(forest, p100).predict(test_X).predictions
    for bits in WIDTH_BITS:
        config = TahoeConfig(node_width=bits, threshold_mode="f32")
        engine = engine_cls(forest, p100, config=config)
        got = engine.predict(test_X).predictions
        assert np.array_equal(got, baseline), f"{engine_cls.__name__} w{bits}"
        assert engine.layout.record.flags_bytes == 0
        assert engine.layout.record.encoding_label == f"w{bits}/f32"


def test_both_layouts_packed_predictions_match(small_gbdt, test_X):
    forest = small_gbdt
    expected = forest.predict(test_X)
    enc = make_encoding(forest, "auto", "f32")
    for layout in (
        convert_forest(forest, TahoeConfig(node_width="auto", threshold_mode="f32"))[0],
        build_reorg_layout(forest, node_encoding=enc),
    ):
        assert layout.record.flags_bytes == 0
        assert layout.metadata["node_encoding"]["lossless"]
        np.testing.assert_array_equal(layout.forest.predict(test_X), expected)


def test_quantised_thresholds_bounded_error(small_forest, test_X, p100):
    forest = small_forest
    baseline = TahoeEngine(forest, p100).predict(test_X).predictions
    engine = TahoeEngine(
        forest, p100, config=TahoeConfig(node_width="auto", threshold_mode="q8")
    )
    got = engine.predict(test_X).predictions
    spread = float(forest.predict(test_X).max() - forest.predict(test_X).min())
    assert np.max(np.abs(got - baseline)) <= max(spread, 1.0)


# ----------------------------------------------------------------------
# Conversion keys and conversion stats
# ----------------------------------------------------------------------


def test_conversion_keys_distinguish_encodings():
    legacy = TahoeConfig().conversion_key()
    assert all("node_encoding" not in str(part) for part in legacy)
    keys = {legacy}
    for bits in WIDTH_BITS:
        for mode in THRESHOLD_MODES:
            keys.add(TahoeConfig(node_width=bits, threshold_mode=mode).conversion_key())
            keys.add(fil_conversion_key(TahoeConfig(node_width=bits, threshold_mode=mode)))
    assert len(keys) == 1 + 2 * len(WIDTH_BITS) * len(THRESHOLD_MODES)
    assert fil_conversion_key(TahoeConfig()) == ("reorg",)


def test_packed_variants_convert_to_distinct_layouts(small_forest, test_X, p100):
    forest = small_forest
    e1 = TahoeEngine(forest, p100)
    e2 = TahoeEngine(forest, p100, config=TahoeConfig(node_width=8))
    assert e1.config.conversion_key() != e2.config.conversion_key()
    assert e1.layout.record.node_bytes != e2.layout.record.node_bytes
    # The same knobs convert to the same record and the same predictions.
    e3 = TahoeEngine(forest, p100, config=TahoeConfig(node_width=8))
    assert e3.layout.record.node_bytes == e2.layout.record.node_bytes
    np.testing.assert_array_equal(
        e2.predict(test_X).predictions, e3.predict(test_X).predictions
    )


def test_conversion_stats_report_encoding(small_forest, test_X, p100):
    engine = TahoeEngine(small_forest, p100,
                         config=TahoeConfig(node_width=16))
    assert engine.conversion_stats.node_encoding == "w16/f32"
    report = engine.predict(test_X, report=True).report
    assert report.conversions[0].node_encoding == "w16/f32"
    legacy = TahoeEngine(small_forest, p100)
    assert legacy.conversion_stats.node_encoding.startswith("legacy-")


# ----------------------------------------------------------------------
# Artifacts and layout files
# ----------------------------------------------------------------------


def test_artifact_round_trip_packed(small_forest, test_X, p100, tmp_path):
    from repro.modelstore import load_packed, pack_forest

    forest = small_forest
    path = tmp_path / "packed.tahoe"
    config = TahoeConfig(node_width=8, threshold_mode="f32")
    pack_forest(forest, p100, path, config=config)
    model = load_packed(path)
    assert model.node_encoding == "w8/f32"
    assert model.layout.record.flags_bytes == 0
    sections = model.section_sizes()
    assert sections.get("words", 0) > 0
    baseline = TahoeEngine(forest, p100, config=config).predict(test_X).predictions
    restored = TahoeEngine(forest, p100).predict(test_X).predictions
    engine = model.make_engine(p100)
    got = engine.predict(test_X).predictions
    np.testing.assert_array_equal(got, baseline)
    np.testing.assert_array_equal(got, restored)

    # Every artifact stores the same narrowest words, whatever record the
    # layout simulates; only a narrower float field shrinks the file.
    wide = tmp_path / "wide.tahoe"
    pack_forest(forest, p100, wide)
    wide_sections = load_packed(wide).section_sizes()
    for kind in ("words", "tfield", "vfield"):
        assert wide_sections[kind] == sections[kind]
    narrow = tmp_path / "q8.tahoe"
    pack_forest(forest, p100, narrow, config=TahoeConfig(node_width=8, threshold_mode="q8"))
    assert narrow.stat().st_size < path.stat().st_size


def test_layout_io_round_trip_packed(small_gbdt, p100, tmp_path):
    from repro.modelstore import load_packed, pack_layout

    forest = small_gbdt
    layout = convert_forest(forest, TahoeConfig(node_width=16, threshold_mode="f32"))[0]
    path = tmp_path / "layout.tahoe"
    pack_layout(
        layout,
        path,
        engine="tahoe",
        spec_name=p100.name,
        conversion_key=(),
        source_fingerprint=forest.fingerprint(),
    )
    loaded = load_packed(path).layout
    assert loaded.record.flags_bytes == 0
    assert loaded.record.threshold_mode == "f32"
    assert loaded.record.node_bytes == layout.record.node_bytes
    X = np.random.default_rng(0).standard_normal(
        (32, forest.n_attributes)
    ).astype(np.float32)
    np.testing.assert_array_equal(
        loaded.forest.predict(X), layout.forest.predict(X)
    )


def test_encoding_ranking_orders_by_bytes_moved(small_forest, p100):
    from repro.perfmodel import rank_node_encodings

    layout = convert_forest(small_forest, TahoeConfig())[0]
    choices = rank_node_encodings(layout, 256, p100)
    assert len(choices) >= 2
    moved = [c.bytes_moved for c in choices]
    assert moved == sorted(moved)
    names = [c.name for c in choices]
    assert names[0] == "w8/f32"  # letter fits 8-bit fids
    assert {"w16/f32", "w32/f32"} <= set(names)

"""Packed ``.tahoe`` artifact: exact round-trip, integrity checking, and
zero-conversion engine construction."""

import dataclasses
import json
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TahoeEngine
from repro.core.config import TahoeConfig
from repro.core.fil import FILEngine
from repro.core.native import NativeEngine
from repro.formats.encoding import THRESHOLD_MODES, WIDTH_BITS
from repro.modelstore import import_model, load_packed, pack_forest
from repro.modelstore.artifact import ARTIFACT_MAGIC, ARTIFACT_VERSION, ArtifactError
from repro.trees.tree import LEAF

FIXTURES = Path(__file__).parent / "fixtures"

_STAGES = (
    "t_fetch_probabilities",
    "t_node_rearrangement",
    "t_similarity_detection",
    "t_format_conversion",
    "t_copy_to_gpu",
)


def _split(raw: bytes) -> tuple[dict, bytes]:
    """An artifact's decoded header and its section bytes."""
    (header_len,) = struct.unpack_from("<I", raw, len(ARTIFACT_MAGIC))
    start = len(ARTIFACT_MAGIC) + 4
    header = json.loads(raw[start : start + header_len])
    return header, raw[start + header_len + 4 :]


def _join(header: dict, body: bytes) -> bytes:
    """Re-encode ``header`` with a valid checksum in front of ``body``."""
    encoded = json.dumps(header).encode()
    return (
        ARTIFACT_MAGIC
        + struct.pack("<I", len(encoded))
        + encoded
        + struct.pack("<I", zlib.crc32(encoded))
        + body
    )


@pytest.fixture()
def packed_path(small_forest, p100, tmp_path):
    path = tmp_path / "model.tahoe"
    pack_forest(small_forest, p100, path)
    return path


class TestRoundTrip:
    def test_layout_and_forest_survive(self, small_forest, p100, packed_path):
        cold = TahoeEngine(small_forest, p100)
        packed = load_packed(packed_path)
        assert packed.engine_kind == "tahoe"
        assert packed.spec_name == p100.name
        assert packed.source_fingerprint == small_forest.fingerprint()
        restored = packed.layout
        assert restored.format_name == cold.layout.format_name
        assert restored.total_bytes == cold.layout.total_bytes
        assert restored.record == cold.layout.record
        assert restored.tree_order == cold.layout.tree_order
        np.testing.assert_array_equal(restored.level_base, cold.layout.level_base)
        for a, b in zip(restored.node_address, cold.layout.node_address):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(restored.forest.trees, cold.layout.forest.trees):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(
                a.threshold.view(np.int32), b.threshold.view(np.int32)
            )
            np.testing.assert_array_equal(a.flip, b.flip)

    def test_predictions_bit_identical(self, small_forest, p100, packed_path, test_X):
        cold = TahoeEngine(small_forest, p100)
        engine = load_packed(packed_path).make_engine(p100)
        np.testing.assert_array_equal(
            engine.predict(test_X).predictions, cold.predict(test_X).predictions
        )

    def test_packed_engine_skips_conversion(self, p100, packed_path):
        engine = load_packed(packed_path).make_engine(p100)
        stats = engine.conversion_stats
        assert stats.source == "artifact"
        for stage in _STAGES:
            assert getattr(stats, stage) == 0.0

    def test_gbdt_scalars_survive(self, small_gbdt, p100, tmp_path, test_X):
        path = tmp_path / "gbdt.tahoe"
        pack_forest(small_gbdt, p100, path)
        packed = load_packed(path)
        forest = packed.layout.forest
        assert forest.aggregation == "sum"
        assert forest.base_score == pytest.approx(small_gbdt.base_score)
        assert forest.learning_rate == pytest.approx(small_gbdt.learning_rate)
        cold = TahoeEngine(small_gbdt, p100)
        np.testing.assert_array_equal(
            packed.make_engine(p100).predict(test_X).predictions,
            cold.predict(test_X).predictions,
        )

    def test_fil_engine_kind(self, small_forest, p100, tmp_path, test_X):
        path = tmp_path / "fil.tahoe"
        pack_forest(small_forest, p100, path, engine="fil")
        packed = load_packed(path)
        assert packed.engine_kind == "fil"
        engine = packed.make_engine(p100)
        assert isinstance(engine, FILEngine)
        cold = FILEngine(small_forest, p100)
        assert packed.layout.format_name == "reorg"
        assert packed.layout.record == cold.layout.record
        np.testing.assert_array_equal(
            engine.predict(test_X).predictions, cold.predict(test_X).predictions
        )

    def test_unknown_engine_kind_rejected(self, small_forest, p100, tmp_path):
        with pytest.raises(ArtifactError, match="engine kind"):
            pack_forest(small_forest, p100, tmp_path / "x.tahoe", engine="treelite")

    def test_section_count_does_not_grow_with_trees(self, small_forest, p100, tmp_path):
        # One section per forest-wide field: a load is a fixed number of reads.
        counts = set()
        for n_trees in (1, small_forest.n_trees):
            forest = small_forest.with_trees(small_forest.trees[:n_trees])
            header = pack_forest(forest, p100, tmp_path / f"{n_trees}.tahoe").header
            counts.add(len(header["sections"]))
        assert counts == {12}

    def test_runtime_metadata_not_packed(self, packed_path):
        header = load_packed(packed_path).header
        assert not any(k.startswith("_") for k in header["layout"]["metadata"])


class TestFixtureRoundTrip:
    """Multiclass and categorical framework dumps through ``.tahoe``."""

    @pytest.mark.parametrize("node_width", [None, 8])
    @pytest.mark.parametrize(
        "fixture", ["xgboost_multiclass_model.json", "lightgbm_categorical_model.txt"]
    )
    def test_packed_fixture_predicts_identically(
        self, p100, tmp_path, fixture, node_width
    ):
        forest = import_model(FIXTURES / fixture)
        config = TahoeConfig(node_width=node_width)
        path = tmp_path / "fixture.tahoe"
        pack_forest(forest, p100, path, config=config)
        packed = load_packed(path)
        assert packed.layout.forest.n_classes == forest.n_classes
        assert packed.layout.forest.has_categorical == forest.has_categorical
        rng = np.random.default_rng(5)
        X = rng.standard_normal((64, forest.n_attributes)).astype(np.float32)
        # Whole category codes (some past every bitset) and NaNs.
        X[::2, :4] = rng.integers(-1, 40, size=(32, 4))
        X[::7, 1] = np.nan
        cold = TahoeEngine(forest, p100, config=config).predict(X).predictions
        tahoe = packed.make_engine(p100).predict(X).predictions
        native = packed.make_engine(p100, backend="native").predict(X).predictions
        expected_shape = (64, forest.n_classes) if forest.n_classes > 1 else (64,)
        assert cold.shape == expected_shape
        np.testing.assert_array_equal(tahoe, cold)
        np.testing.assert_array_equal(native, cold)


class TestIntegrity:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.tahoe"
        path.write_bytes(b"NOTTAHOE" + b"\x00" * 32)
        with pytest.raises(ArtifactError, match="magic"):
            load_packed(path)

    def test_truncated_header_rejected(self, packed_path, tmp_path):
        raw = packed_path.read_bytes()
        stub = tmp_path / "trunc.tahoe"
        stub.write_bytes(raw[: len(ARTIFACT_MAGIC) + 4 + 10])
        with pytest.raises(ArtifactError, match="truncated"):
            load_packed(stub)

    def test_bit_flip_fails_crc(self, packed_path, tmp_path):
        raw = bytearray(packed_path.read_bytes())
        raw[-1] ^= 0xFF  # corrupt the final section's payload
        bad = tmp_path / "flipped.tahoe"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="crc32"):
            load_packed(bad)

    def test_future_version_rejected(self, packed_path, tmp_path):
        raw = packed_path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, len(ARTIFACT_MAGIC))
        start = len(ARTIFACT_MAGIC) + 4
        header = raw[start : start + header_len].replace(
            f'"artifact_version":{ARTIFACT_VERSION}'.encode(),
            f'"artifact_version":{ARTIFACT_VERSION + 1}'.encode(),
        )
        assert len(header) == header_len  # same-length in-place edit
        future = tmp_path / "future.tahoe"
        future.write_bytes(raw[:start] + header + raw[start + header_len :])
        with pytest.raises(ArtifactError, match="version"):
            load_packed(future)

    def test_v3_file_rejected(self, packed_path, tmp_path):
        # A v3 file: magic, header length, header, then sections (no
        # header checksum).
        header, body = _split(packed_path.read_bytes())
        header["artifact_version"] = 3
        encoded = json.dumps(header).encode()
        old = tmp_path / "v3.tahoe"
        old.write_bytes(ARTIFACT_MAGIC + struct.pack("<I", len(encoded)) + encoded + body)
        with pytest.raises(ArtifactError, match="repack"):
            load_packed(old)

    def test_v4_file_rejected(self, packed_path, tmp_path):
        # v4 stored one set of sections per tree; its files must be repacked.
        header, body = _split(packed_path.read_bytes())
        header["artifact_version"] = 4
        old = tmp_path / "v4.tahoe"
        old.write_bytes(_join(header, body))
        with pytest.raises(ArtifactError, match="repack"):
            load_packed(old)

    def test_spec_mismatch_rejected(self, packed_path):
        from repro.gpusim.specs import GPU_SPECS

        with pytest.raises(ArtifactError, match="packed for"):
            load_packed(packed_path).make_engine(GPU_SPECS["K80"])


# ----------------------------------------------------------------------
# Round-trip matrix: every record family, both formats
# ----------------------------------------------------------------------

_TREE_ARRAYS = (
    "feature", "threshold", "left", "right", "value", "default_left",
    "visit_count", "flip", "cat_offset", "cat_count", "cat_bits",
)


def _assert_same_layout(got, want):
    """Bit-exact equality of everything a layout carries."""
    assert got.record == want.record
    assert got.format_name == want.format_name
    assert got.total_bytes == want.total_bytes
    assert got.tree_order == want.tree_order
    assert got.level_base.tobytes() == want.level_base.tobytes()
    assert got.level_slots.tobytes() == want.level_slots.tobytes()
    assert len(got.node_address) == len(want.node_address)
    for a, b in zip(got.node_address, want.node_address):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    gf, wf = got.forest, want.forest
    for attr in ("n_attributes", "n_classes", "task", "aggregation", "name", "metadata"):
        assert getattr(gf, attr) == getattr(wf, attr)
    for attr in ("base_score", "learning_rate"):
        assert np.float64(getattr(gf, attr)).tobytes() == np.float64(getattr(wf, attr)).tobytes()
    assert gf.n_trees == wf.n_trees
    for a, b in zip(gf.trees, wf.trees):
        assert a.group == b.group
        for name in _TREE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _wide_fid(forest):
    """``forest`` with attribute ``f`` moved to ``256 + 16 f``: as few
    distinct attributes as before (a 1-byte record index) but fids that
    need 16-bit node words."""
    trees = []
    for tree in forest.trees:
        clone = tree.copy()
        clone.feature = np.where(
            tree.feature == LEAF, LEAF, 256 + 16 * tree.feature
        ).astype(np.int32)
        trees.append(clone)
    return dataclasses.replace(forest, trees=trees, n_attributes=512)


_RECORD_CASES = [("fixed", {"variable_width": False}), ("variable", {})] + [
    (f"w{bits}/{mode}", {"node_width": bits, "threshold_mode": mode})
    for bits in WIDTH_BITS
    for mode in THRESHOLD_MODES
]
_MATRIX = [
    pytest.param(wide, engine, kwargs, id=f"{'wide' if wide else 'narrow'}-{engine}-{label}")
    for wide in (False, True)
    for engine in ("tahoe", "fil")
    for label, kwargs in _RECORD_CASES
    # FIL has no variable-width record; 8-bit words cannot hold fids >= 32.
    if not (engine == "fil" and label == "variable")
    if not (wide and label.startswith("w8/"))
]


@pytest.fixture(scope="module")
def matrix_inputs(small_forest, test_X):
    X = test_X[:32]
    wide_X = np.zeros((X.shape[0], 512), dtype=np.float32)
    wide_X[:, 256 + 16 * np.arange(X.shape[1])] = X
    return {False: (small_forest, X), True: (_wide_fid(small_forest), wide_X)}


@pytest.mark.parametrize("wide,engine,kwargs", _MATRIX)
def test_round_trip_matrix(matrix_inputs, p100, tmp_path, wide, engine, kwargs):
    forest, X = matrix_inputs[wide]
    config = TahoeConfig(**kwargs)
    path = tmp_path / "m.tahoe"
    built = pack_forest(forest, p100, path, engine=engine, config=config).layout
    loaded = load_packed(path)
    _assert_same_layout(loaded.layout, built)
    if wide and not kwargs:
        # A 1-byte record index over fids that need 16-bit disk words.
        assert built.record.encoding_label == "legacy-a1"
    word_dtypes = {
        dtype for name, dtype, *_ in loaded.header["sections"] if name == "words"
    }
    assert word_dtypes == {"uint16" if wide else "uint8"}  # narrowest fit, every record

    cls = TahoeEngine if engine == "tahoe" else FILEngine
    cold = cls(forest, p100, config=config).predict(X).predictions
    np.testing.assert_array_equal(loaded.make_engine(p100).predict(X).predictions, cold)
    native = loaded.make_engine(p100, backend="native").predict(X).predictions
    native_cold = NativeEngine.from_layout(built, p100).predict(X).predictions
    np.testing.assert_array_equal(native, native_cold)


# ----------------------------------------------------------------------
# Malformed headers, truncation, byte flips
# ----------------------------------------------------------------------


def _rewrite(path, mutate):
    """Apply ``mutate`` to ``path``'s decoded header and re-checksum it."""
    header, body = _split(path.read_bytes())
    mutate(header)
    path.write_bytes(_join(header, body))
    return path


def _rewrite_section(path, name, mutate):
    """Apply ``mutate`` to a copy of section ``name``'s array, then write
    it back with its section crc32 and the header crc32 recomputed."""
    header, body = _split(path.read_bytes())
    offset = 0
    for row in header["sections"]:
        if row[0] == name:
            break
        offset += row[2]
    else:
        raise KeyError(name)
    _, dtype, length, _ = row
    arr = np.frombuffer(body[offset : offset + length], dtype=np.dtype(dtype).newbyteorder("<"))
    arr = arr.copy()
    mutate(arr)
    data = arr.tobytes()
    row[3] = zlib.crc32(data)
    path.write_bytes(_join(header, body[:offset] + data + body[offset + length :]))
    return path


class TestHeaderValidation:
    def test_missing_n_trees(self, packed_path):
        _rewrite(packed_path, lambda h: h["forest"].pop("n_trees"))
        with pytest.raises(ArtifactError, match="keys"):
            load_packed(packed_path)

    def test_extra_record_key(self, packed_path):
        _rewrite(packed_path, lambda h: h["layout"]["record"].update(packed=True))
        with pytest.raises(ArtifactError, match="record"):
            load_packed(packed_path)

    def test_unknown_section_dtype(self, packed_path):
        _rewrite(packed_path, lambda h: h["sections"][0].__setitem__(1, "float128x"))
        with pytest.raises(ArtifactError, match="dtype"):
            load_packed(packed_path)

    def test_non_list_sections(self, packed_path):
        _rewrite(packed_path, lambda h: h.update(sections={"tree0/words": 0}))
        with pytest.raises(ArtifactError, match="sections"):
            load_packed(packed_path)

    def test_non_integer_total_bytes(self, packed_path):
        _rewrite(packed_path, lambda h: h["layout"].update(total_bytes="12"))
        with pytest.raises(ArtifactError, match="total_bytes"):
            load_packed(packed_path)

    def test_fewer_trees_than_sections(self, packed_path):
        _rewrite(packed_path, lambda h: h["forest"].update(n_trees=3))
        with pytest.raises(ArtifactError, match="n_trees"):
            load_packed(packed_path)

    def test_tree_nodes_edit_rejected(self, packed_path):
        # v5 keeps tree sizes in a section: a re-checksummed edit must
        # still be caught, since the sizes no longer sum to the nodes.
        _rewrite_section(packed_path, "tree_nodes", lambda a: a.__setitem__(0, 3))
        with pytest.raises(ArtifactError, match="sum to"):
            load_packed(packed_path)

    @pytest.mark.parametrize("key,value", [("attr_bytes", 2), ("flags_bytes", 0)])
    def test_record_edit_rejected(self, packed_path, key, value):
        _rewrite(packed_path, lambda h: h["layout"]["record"].update({key: value}))
        with pytest.raises(ArtifactError, match="total_bytes"):
            load_packed(packed_path)

    def test_total_bytes_edit_rejected(self, packed_path):
        _rewrite(packed_path, lambda h: h["layout"].update(total_bytes=h["layout"]["total_bytes"] + 1))
        with pytest.raises(ArtifactError, match="total_bytes"):
            load_packed(packed_path)

    @pytest.mark.parametrize("name,problem", [("extra", "unexpected sections"), (None, "repeats")])
    def test_appended_section_rejected(self, packed_path, name, problem):
        # A well-formed, checksummed copy of the first section, appended
        # under a name nothing reads or under the first section's own name.
        header, body = _split(packed_path.read_bytes())
        first = header["sections"][0]
        header["sections"].append([name or first[0]] + first[1:])
        packed_path.write_bytes(_join(header, body + body[: first[2]]))
        with pytest.raises(ArtifactError, match=problem):
            load_packed(packed_path)

    def test_trailing_bytes_rejected(self, packed_path):
        packed_path.write_bytes(packed_path.read_bytes() + b"\x00")
        with pytest.raises(ArtifactError, match="padded"):
            load_packed(packed_path)

    def test_header_checksum(self, packed_path):
        raw = bytearray(packed_path.read_bytes())
        raw[raw.index(b'"spec_name":"') + 13] ^= 0x01
        packed_path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="header failed its crc32"):
            load_packed(packed_path)


class TestBlockValidation:
    """Bad node arrays under recomputed checksums: the one-pass block
    validation refuses them instead of loading a wrong forest."""

    @pytest.fixture()
    def block(self, packed_path):
        return load_packed(packed_path).layout.block

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold(self, packed_path, block, bad):
        node = int(np.flatnonzero(~block.is_leaf)[3])
        _rewrite_section(packed_path, "tfield", lambda a: a.__setitem__(node, bad))
        with pytest.raises(ArtifactError, match="non-finite threshold"):
            load_packed(packed_path)

    def test_non_finite_leaf_value(self, packed_path, block):
        node = int(np.flatnonzero(block.is_leaf)[2])
        _rewrite_section(packed_path, "vfield", lambda a: a.__setitem__(node, np.nan))
        with pytest.raises(ArtifactError, match="non-finite leaf value"):
            load_packed(packed_path)

    def test_child_outside_its_tree(self, packed_path, block):
        t = 1
        node = int(block.offsets[t] + np.flatnonzero(~block.trees[t].is_leaf)[0])
        size = block.trees[t].n_nodes
        _rewrite_section(packed_path, "left", lambda a: a.__setitem__(node, size))
        with pytest.raises(ArtifactError, match="out-of-range child"):
            load_packed(packed_path)

    def test_node_with_two_parents(self, packed_path, block):
        node = int(np.flatnonzero(~block.is_leaf)[0])
        left = int(block.local_left[node])
        _rewrite_section(packed_path, "right", lambda a: a.__setitem__(node, left))
        with pytest.raises(ArtifactError, match="exactly one parent"):
            load_packed(packed_path)

    def test_feature_beyond_n_attributes(self, packed_path, block):
        node = int(np.flatnonzero(~block.is_leaf)[0])
        n_attributes = load_packed(packed_path).layout.forest.n_attributes

        def widen(words):
            # Keep the flag bits; the fid is the low 5 bits of an 8-bit word.
            words[node] = (int(words[node]) & ~0x1F) | n_attributes

        _rewrite_section(packed_path, "words", widen)
        with pytest.raises(ArtifactError, match=f"feature >= {n_attributes}"):
            load_packed(packed_path)

    def test_trees_are_read_only_views(self, packed_path):
        layout = load_packed(packed_path).layout
        tree = layout.forest.trees[2]
        assert np.shares_memory(tree.left, layout.block.local_left)
        for name in ("feature", "threshold", "left", "right", "value", "visit_count"):
            assert not getattr(tree, name).flags.writeable, name

    def test_pack_refuses_a_layout_that_would_not_load(self, small_forest, p100, tmp_path):
        forest = small_forest.copy()
        tree = forest.trees[0]
        tree.threshold[int(np.flatnonzero(~tree.is_leaf)[0])] = np.inf
        with pytest.raises(ArtifactError, match="non-finite threshold"):
            pack_forest(forest, p100, tmp_path / "inf.tahoe")


_WRONG_TYPES = (None, True, 7, 2.5, "x", [1], {"a": 1})


def _schema_paths(header):
    """Every key the header schema holds, as paths of keys and indices,
    grouped so the few top-level keys are drawn as often as the many
    section-table ones."""
    return [
        [(k,) for k in header],
        [("forest", k) for k in header["forest"]],
        [("layout", k) for k in header["layout"]],
        [("layout", "record", k) for k in header["layout"]["record"]],
        [("sections", i, k) for i, row in enumerate(header["sections"]) for k in range(len(row))],
    ]


#: Integer keys whose value any edit must be caught on (or leave the
#: loaded layout identical): counts, sizes, record widths, the section table.
_RENUMBERABLE = {
    ("artifact_version",), ("forest", "n_trees"), ("layout", "total_bytes"),
    ("layout", "record", "attr_bytes"), ("layout", "record", "flags_bytes"),
}


def _renumberable(path):
    return (
        path in _RENUMBERABLE
        or (len(path) == 3 and path[0] == "sections" and path[2] in (2, 3))  # length, crc32
    )


@pytest.fixture(scope="module")
def fuzz_artifacts(small_forest, small_gbdt, p100, tmp_path_factory):
    """(bytes, layout) of a default Tahoe artifact and a q8 FIL one."""
    out = []
    for forest, engine, config in (
        (small_forest, "tahoe", None),
        (small_gbdt, "fil", TahoeConfig(node_width="auto", threshold_mode="q8")),
    ):
        path = tmp_path_factory.mktemp("fuzz") / f"{engine}.tahoe"
        layout = pack_forest(forest, p100, path, engine=engine, config=config).layout
        out.append((path.read_bytes(), layout))
    return out


def _loads_identically_or_fails(raw, directory, want):
    # A fresh file each time: overwriting one in place is far slower on
    # some filesystems than creating and unlinking a new one.
    path = directory / f"{uuid.uuid4().hex}.tahoe"
    path.write_bytes(raw)
    try:
        got = load_packed(path).layout
    except ArtifactError:
        return
    finally:
        path.unlink()
    _assert_same_layout(got, want)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_header_mutations_fail_or_load_identically(fuzz_artifacts, tmp_path_factory, data):
    raw, want = data.draw(st.sampled_from(fuzz_artifacts))
    header, body = _split(raw)
    path = data.draw(st.sampled_from(data.draw(st.sampled_from(_schema_paths(header)))))
    *parents, key = path
    parent = header
    for p in parents:
        parent = parent[p]
    ops = ["drop", "add", "retype"] + (["renumber"] if _renumberable(path) else [])
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "add":
        if isinstance(parent, dict):
            parent["unexpected"] = 0
        else:
            parent.append(0)
    elif op == "retype":
        original = parent[key]
        parent[key] = data.draw(
            st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(original)])
        )
    else:
        parent[key] += data.draw(st.integers(-3, 3).filter(bool))
    _loads_identically_or_fails(_join(header, body), tmp_path_factory.getbasetemp(), want)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncation_and_byte_flips_fail_or_load_identically(
    fuzz_artifacts, tmp_path_factory, data
):
    raw, want = data.draw(st.sampled_from(fuzz_artifacts))
    at = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        mutated = raw[:at]
    else:
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        mutated = bytes(flipped)
    _loads_identically_or_fails(mutated, tmp_path_factory.getbasetemp(), want)

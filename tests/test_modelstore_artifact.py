"""Packed ``.tahoe`` artifact: exact round-trip, integrity checking, and
zero-conversion engine construction."""

import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import TahoeEngine
from repro.core.cache import LayoutCache
from repro.core.config import TahoeConfig
from repro.core.fil import FILEngine
from repro.modelstore import import_model, load_packed, pack_forest
from repro.modelstore.artifact import ARTIFACT_MAGIC, ArtifactError

FIXTURES = Path(__file__).parent / "fixtures"

_STAGES = (
    "t_fetch_probabilities",
    "t_node_rearrangement",
    "t_similarity_detection",
    "t_format_conversion",
    "t_copy_to_gpu",
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


class TestCachePublication:
    def test_artifact_feeds_layout_cache(self, small_forest, p100, packed_path):
        cache = LayoutCache(capacity=4)
        packed = load_packed(packed_path)
        engine = packed.make_engine(p100, layout_cache=cache)
        # A cold engine built later from the *source* forest must hit the
        # published entry instead of reconverting.
        warm = TahoeEngine(small_forest, p100, layout_cache=cache)
        assert warm.conversion_stats.source == "cache"
        assert warm.layout is engine.layout

    def test_cache_key_matches_cold_lookup(self, small_forest, p100, packed_path):
        from repro.core.config import TahoeConfig

        packed = load_packed(packed_path)
        expected = LayoutCache.key(
            small_forest, p100, TahoeConfig().conversion_key()
        )
        assert packed.cache_key == expected


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
            b'"artifact_version":3', b'"artifact_version":9'
        )
        assert len(header) == header_len  # same-length in-place edit
        future = tmp_path / "future.tahoe"
        future.write_bytes(raw[:start] + header + raw[start + header_len :])
        with pytest.raises(ArtifactError, match="version"):
            load_packed(future)

    def test_spec_mismatch_rejected(self, packed_path):
        from repro.gpusim.specs import GPU_SPECS

        with pytest.raises(ArtifactError, match="packed for"):
            load_packed(packed_path).make_engine(GPU_SPECS["K80"])

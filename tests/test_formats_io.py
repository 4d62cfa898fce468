"""Tests for layout serialisation through the ``.tahoe`` artifact."""

import json
import struct

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.formats import build_reorg_layout
from repro.modelstore import load_packed
from repro.modelstore.artifact import ARTIFACT_MAGIC, ArtifactError, pack_layout


@pytest.fixture()
def layout(small_forest):
    return convert_forest(small_forest, TahoeConfig())[0]


def _round_trip(layout, path, engine="tahoe"):
    pack_layout(
        layout,
        path,
        engine=engine,
        spec_name="P100",
        conversion_key=(),
        source_fingerprint=layout.forest.fingerprint(),
    )
    return load_packed(path).layout


class TestLayoutRoundTrip:
    def test_predictions_preserved(self, layout, test_X, tmp_path):
        restored = _round_trip(layout, tmp_path / "layout.tahoe")
        np.testing.assert_array_equal(
            restored.forest.predict(test_X), layout.forest.predict(test_X)
        )

    def test_addresses_identical(self, layout, tmp_path):
        restored = _round_trip(layout, tmp_path / "layout.tahoe")
        for a, b in zip(restored.node_address, layout.node_address):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(restored.level_base, layout.level_base)
        assert restored.total_bytes == layout.total_bytes

    def test_record_and_order_preserved(self, layout, tmp_path):
        restored = _round_trip(layout, tmp_path / "layout.tahoe")
        assert restored.record == layout.record
        assert restored.tree_order == layout.tree_order
        assert restored.format_name == "adaptive"

    def test_restored_layout_runs_on_simulator(self, layout, test_X, p100, small_forest, tmp_path):
        from repro.strategies import SharedDataStrategy

        restored = _round_trip(layout, tmp_path / "layout.tahoe")
        result = SharedDataStrategy().run(restored, test_X, p100)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )

    def test_runtime_caches_not_persisted(self, layout, tmp_path):
        from repro.gpusim.trace import flatten_layout

        flatten_layout(layout)  # populate a runtime cache
        assert "_flat" in layout.metadata
        restored = _round_trip(layout, tmp_path / "layout.tahoe")
        assert "_flat" not in restored.metadata

    def test_reorg_layout_round_trips(self, small_forest, test_X, tmp_path):
        layout = build_reorg_layout(small_forest)
        restored = _round_trip(layout, tmp_path / "reorg.tahoe", engine="fil")
        assert restored.format_name == "reorg"
        assert restored.record.attr_bytes == 4
        np.testing.assert_array_equal(
            restored.forest.predict(test_X), small_forest.predict(test_X)
        )

    def test_version_check(self, layout, tmp_path):
        path = tmp_path / "layout.tahoe"
        _round_trip(layout, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, len(ARTIFACT_MAGIC))
        start = len(ARTIFACT_MAGIC) + 4
        header = json.loads(raw[start : start + header_len])
        header["artifact_version"] = 99
        encoded = json.dumps(header).encode()
        path.write_bytes(
            ARTIFACT_MAGIC
            + struct.pack("<I", len(encoded))
            + encoded
            + raw[start + header_len :]
        )
        with pytest.raises(ArtifactError, match="version"):
            load_packed(path)

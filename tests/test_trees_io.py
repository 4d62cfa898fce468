"""Tests for forest (de)serialisation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.forest import Forest
from repro.trees.io import forest_from_dict, forest_to_dict, load_forest, save_forest
from repro.trees.tree import LEAF, DecisionTree


def _v1_payload(forest: Forest) -> dict:
    """A legacy v1 payload: the v2 one with every array as a JSON list."""
    payload = forest_to_dict(forest)
    payload["format_version"] = 1
    payload["trees"] = [
        {
            name: getattr(tree, name).tolist() if isinstance(field, dict) else field
            for name, field in entry.items()
        }
        for tree, entry in zip(forest.trees, payload["trees"])
    ]
    return payload


class TestRoundTrip:
    def test_dict_round_trip_preserves_predictions(self, small_forest, test_X):
        restored = forest_from_dict(forest_to_dict(small_forest))
        np.testing.assert_allclose(
            restored.predict(test_X), small_forest.predict(test_X)
        )

    def test_dict_round_trip_preserves_structure(self, small_gbdt):
        restored = forest_from_dict(forest_to_dict(small_gbdt))
        assert restored.n_trees == small_gbdt.n_trees
        assert restored.aggregation == "sum"
        assert restored.base_score == pytest.approx(small_gbdt.base_score)
        assert restored.learning_rate == pytest.approx(small_gbdt.learning_rate)
        for a, b in zip(restored.trees, small_gbdt.trees):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.visit_count, b.visit_count)
            np.testing.assert_array_equal(a.flip, b.flip)

    def test_file_round_trip(self, small_forest, test_X, tmp_path):
        path = tmp_path / "forest.json"
        save_forest(small_forest, path)
        restored = load_forest(path)
        np.testing.assert_allclose(
            restored.predict(test_X), small_forest.predict(test_X)
        )

    def test_flip_bits_survive(self, small_forest, test_X):
        from repro.formats.node_rearrange import rearrange_forest_nodes

        rearranged = rearrange_forest_nodes(small_forest)
        restored = forest_from_dict(forest_to_dict(rearranged))
        assert any(t.flip.any() for t in restored.trees)
        np.testing.assert_allclose(
            restored.predict(test_X), small_forest.predict(test_X), rtol=1e-6
        )

    def test_missing_flip_defaults_false(self, small_forest):
        payload = forest_to_dict(small_forest)
        for tree in payload["trees"]:
            del tree["flip"]
        restored = forest_from_dict(payload)
        assert not any(t.flip.any() for t in restored.trees)

    def test_unknown_version_rejected(self, small_forest):
        payload = forest_to_dict(small_forest)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            forest_from_dict(payload)

    def test_payload_is_json_compatible(self, small_forest):
        json.dumps(forest_to_dict(small_forest))  # must not raise


class TestFormatVersions:
    def test_writer_default_is_v2(self, small_forest):
        payload = forest_to_dict(small_forest)
        assert payload["format_version"] == 2
        assert "b64" in payload["trees"][0]["threshold"]

    def test_v2_is_smaller_on_disk(self, small_forest):
        v1 = json.dumps(_v1_payload(small_forest))
        v2 = json.dumps(forest_to_dict(small_forest))
        assert len(v2) < len(v1)

    def test_v1_file_loads_with_v2_loader(self, small_forest, test_X, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(_v1_payload(small_forest)))
        restored = load_forest(path)
        np.testing.assert_array_equal(
            restored.predict(test_X), small_forest.predict(test_X)
        )


def _property_forest(thresholds, values, visits, defaults, flips) -> Forest:
    """Graft hypothesis-generated payloads onto a fixed 7-node shape."""
    tree = DecisionTree(
        feature=np.array([0, LEAF, 1, LEAF, 0, LEAF, LEAF], dtype=np.int32),
        threshold=np.array(thresholds, dtype=np.float32),
        left=np.array([1, LEAF, 3, LEAF, 5, LEAF, LEAF], dtype=np.int32),
        right=np.array([2, LEAF, 4, LEAF, 6, LEAF, LEAF], dtype=np.int32),
        value=np.array(values, dtype=np.float32),
        default_left=np.array(defaults, dtype=bool),
        visit_count=np.array(visits, dtype=np.int64),
        flip=np.array(flips, dtype=bool),
    )
    return Forest(trees=[tree], n_attributes=2)


_f32 = st.floats(width=32, allow_nan=False)
_seven = lambda elems: st.lists(elems, min_size=7, max_size=7)  # noqa: E731


class TestExactRoundTripProperty:
    """Both on-disk versions must round-trip dtype and value exactly."""

    @settings(max_examples=50, deadline=None)
    @given(
        thresholds=_seven(_f32),
        values=_seven(_f32),
        visits=_seven(st.integers(min_value=1, max_value=2**62)),
        defaults=_seven(st.booleans()),
        flips=_seven(st.booleans()),
        version=st.sampled_from([1, 2]),
    )
    def test_bit_exact_round_trip(
        self, thresholds, values, visits, defaults, flips, version
    ):
        forest = _property_forest(thresholds, values, visits, defaults, flips)
        # Through a real JSON string, exactly as save_forest/load_forest do.
        written = _v1_payload(forest) if version == 1 else forest_to_dict(forest)
        payload = json.loads(json.dumps(written))
        restored = forest_from_dict(payload)
        a, b = forest.trees[0], restored.trees[0]
        for name in (
            "feature", "threshold", "left", "right", "value",
            "default_left", "visit_count", "flip",
        ):
            got, want = getattr(b, name), getattr(a, name)
            assert got.dtype == want.dtype, f"{name} dtype drifted (v{version})"
            np.testing.assert_array_equal(got, want, err_msg=f"{name} (v{version})")
        # Bit-exactness of the float payloads, not just value equality.
        np.testing.assert_array_equal(
            b.threshold.view(np.int32), a.threshold.view(np.int32)
        )
        np.testing.assert_array_equal(b.value.view(np.int32), a.value.view(np.int32))

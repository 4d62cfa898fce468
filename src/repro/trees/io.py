"""Forest (de)serialisation.

JSON-compatible dictionaries so forests can be saved, inspected, and moved
between processes (the paper's engine ships converted forests between CPU
and GPU; we ship them between the trainer and the simulator).

Two on-disk versions exist:

* **v1** (read only) — every array spelled out as a JSON list.
  Human-readable, but a 100K-node forest costs megabytes of ASCII floats
  and a slow float-repr round trip.
* **v2** (the one writer) — arrays as raw little-endian bytes,
  base64-encoded, tagged with their dtype.  Compact (≈4 bytes per float32
  instead of ≈18 characters) and **exact**: the bytes on disk are the
  bytes in memory, so dtype and value round-trip bit-for-bit.

:func:`forest_from_dict` / :func:`load_forest` read both versions; the
fully binary deployment artifact (no JSON at all) lives in
:mod:`repro.modelstore.artifact`.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

__all__ = ["forest_to_dict", "forest_from_dict", "save_forest", "load_forest"]

_FORMAT_VERSION = 2

#: Canonical dtype per tree array (the dtypes ``DecisionTree`` coerces to).
_TREE_ARRAYS = {
    "feature": np.int32,
    "threshold": np.float32,
    "left": np.int32,
    "right": np.int32,
    "value": np.float32,
    "default_left": np.bool_,
    "visit_count": np.int64,
    "flip": np.bool_,
}


def _encode_array(arr: np.ndarray, dtype: type) -> dict:
    """One 1-D array as ``{"dtype": ..., "b64": ...}`` (little-endian raw)."""
    a = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
    return {"dtype": np.dtype(dtype).name, "b64": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(payload: dict) -> np.ndarray:
    dtype = np.dtype(payload["dtype"]).newbyteorder("<")
    arr = np.frombuffer(base64.b64decode(payload["b64"]), dtype=dtype)
    return arr.astype(dtype.newbyteorder("="))  # native-endian, writable copy


#: Optional categorical-bitset arrays (present only on trees that carry
#: LightGBM-style categorical splits); absent keys keep old files valid.
_CAT_ARRAYS = {
    "cat_offset": np.int64,
    "cat_count": np.int32,
    "cat_bits": np.uint32,
}


def _tree_to_dict_v2(tree: DecisionTree) -> dict:
    payload = {
        name: _encode_array(getattr(tree, name), dtype)
        for name, dtype in _TREE_ARRAYS.items()
    }
    if tree.group:
        payload["group"] = int(tree.group)
    if tree.cat_offset is not None:
        for name, dtype in _CAT_ARRAYS.items():
            payload[name] = _encode_array(getattr(tree, name), dtype)
    return payload


def _tree_from_dict_v1(payload: dict) -> DecisionTree:
    cats = {
        name: np.array(payload[name], dtype=dtype)
        for name, dtype in _CAT_ARRAYS.items()
        if name in payload
    }
    return DecisionTree(
        feature=np.array(payload["feature"], dtype=np.int32),
        threshold=np.array(payload["threshold"], dtype=np.float32),
        left=np.array(payload["left"], dtype=np.int32),
        right=np.array(payload["right"], dtype=np.int32),
        value=np.array(payload["value"], dtype=np.float32),
        default_left=np.array(payload["default_left"], dtype=bool),
        visit_count=np.array(payload["visit_count"], dtype=np.int64),
        flip=np.array(payload.get("flip", [False] * len(payload["feature"])), dtype=bool),
        group=int(payload.get("group", 0)),
        **cats,
    )


def _tree_from_dict_v2(payload: dict) -> DecisionTree:
    arrays = {
        name: _decode_array(payload[name]) for name in _TREE_ARRAYS if name in payload
    }
    arrays.update(
        {name: _decode_array(payload[name]) for name in _CAT_ARRAYS if name in payload}
    )
    # ``flip`` is optional in both versions: pre-rearrangement forests
    # may omit it, and the loader defaults it to all-False.
    arrays.setdefault("flip", None)
    return DecisionTree(group=int(payload.get("group", 0)), **arrays)


def forest_to_dict(forest: Forest) -> dict:
    """Serialise a forest to a JSON-compatible dictionary (v2)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "n_attributes": forest.n_attributes,
        "task": forest.task,
        "aggregation": forest.aggregation,
        "base_score": forest.base_score,
        "learning_rate": forest.learning_rate,
        "name": forest.name,
        "metadata": forest.metadata,
        "trees": [_tree_to_dict_v2(tree) for tree in forest.trees],
    }
    # Written only for multiclass forests so single-output files are
    # byte-identical to what earlier writers produced.
    if forest.n_classes > 1:
        payload["n_classes"] = int(forest.n_classes)
    return payload


def forest_from_dict(payload: dict) -> Forest:
    """Rebuild a forest from :func:`forest_to_dict` output (v1 or v2).

    Raises:
        ValueError: on an unknown format version.
    """
    version = payload.get("format_version")
    if version not in (1, 2):
        raise ValueError(f"unsupported forest format version: {version!r}")
    from_tree = _tree_from_dict_v1 if version == 1 else _tree_from_dict_v2
    return Forest(
        trees=[from_tree(t) for t in payload["trees"]],
        n_attributes=int(payload["n_attributes"]),
        n_classes=int(payload.get("n_classes", 1) or 1),
        task=payload["task"],
        aggregation=payload["aggregation"],
        base_score=float(payload["base_score"]),
        learning_rate=float(payload["learning_rate"]),
        name=payload.get("name", "forest"),
        metadata=dict(payload.get("metadata", {})),
    )


def save_forest(forest: Forest, path: str | Path) -> None:
    """Write a forest to ``path`` as JSON (v2)."""
    Path(path).write_text(json.dumps(forest_to_dict(forest)))


def load_forest(path: str | Path) -> Forest:
    """Read a forest previously written by :func:`save_forest` (v1 or v2)."""
    return forest_from_dict(json.loads(Path(path).read_text()))

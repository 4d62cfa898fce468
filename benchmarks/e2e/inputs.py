"""Pinned benchmark inputs: the fig5 forests, their request pools and the GPU.

Every workload draws its inputs from here.  The forests are the trained
fig5 forests committed under ``benchmarks/.cache/``; a request pool is a
forest's 30 % inference split, synthesised by ``repro.datasets`` with
the same parameters the figure benchmarks use.  ``inputs.json`` records
a sha256 of each forest's node arrays and of each pool, computed here
(not with ``Forest.fingerprint``, which is code under test), plus the
scaled P100 as constants — calibrating it takes ~2.5 s per process.
A run whose inputs hash differently refuses to measure: two runs are
comparable only on identical inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINS_PATH = HERE / "inputs.json"

#: Node arrays that define a tree, with the dtype each is hashed in.
_TREE_ARRAYS = (
    ("feature", "<i4"),
    ("threshold", "<f4"),
    ("left", "<i4"),
    ("right", "<i4"),
    ("value", "<f4"),
    ("default_left", "u1"),
    ("flip", "u1"),
    ("visit_count", "<i8"),
)


class InputMismatch(RuntimeError):
    """Loaded inputs differ from the pinned digests."""


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def forest_digest(forest) -> str:
    """sha256 over the forest's scalar attributes and every node array."""
    h = hashlib.sha256()
    head = (
        forest.n_trees,
        forest.n_attributes,
        forest.n_classes,
        forest.task,
        forest.aggregation,
        repr(float(forest.base_score)),
        repr(float(forest.learning_rate)),
    )
    h.update(repr(head).encode())
    for tree in forest.trees:
        for field, dtype in _TREE_ARRAYS:
            h.update(np.ascontiguousarray(getattr(tree, field), dtype=dtype).tobytes())
    return h.hexdigest()


def pool_digest(X: np.ndarray) -> str:
    h = hashlib.sha256(repr(X.shape).encode())
    h.update(np.ascontiguousarray(X, dtype="<f4").tobytes())
    return h.hexdigest()


def make_spec(pins: dict):
    """The scaled P100 every workload runs on, from its pinned fields."""
    from repro.gpusim.specs import GPUSpec

    return GPUSpec(**pins["spec"])


def forest_payload(name: str, pins: dict) -> dict:
    """The parsed forest file; ``forest_from_dict`` turns it into a fresh
    forest, so each set-up starts from objects no earlier one touched."""
    path = ROOT / pins["forest_dir"] / pins["forests"][name]["file"]
    return json.loads(path.read_text())


def build_forest(payload: dict):
    from repro.trees.io import forest_from_dict

    return forest_from_dict(payload)


def load_pool(name: str, pins: dict) -> np.ndarray:
    """The forest's inference split (the rows requests are drawn from)."""
    from repro.datasets import DATASETS, load_dataset, train_test_split

    p = pins["pool"]
    scale = min(1.0, p["target_samples"] / DATASETS[name].n_samples)
    data = load_dataset(name, scale=scale, seed=p["seed"], attribute_cap=p["attribute_cap"])
    split = train_test_split(data, train_fraction=p["train_fraction"], seed=p["seed"])
    return np.ascontiguousarray(split.test.X, dtype=np.float32)


def load_inputs(names, pins: dict) -> dict[str, tuple[dict, np.ndarray]]:
    """Load and verify ``{name: (forest payload, pool)}``.

    Raises:
        InputMismatch: a forest or pool hashes differently from its pin.
    """
    loaded = {}
    bad = []
    for name in names:
        payload = forest_payload(name, pins)
        pool = load_pool(name, pins)
        want = pins["forests"][name]
        if forest_digest(build_forest(payload)) != want["forest_sha256"]:
            bad.append(f"{name} forest")
        if pool_digest(pool) != want["pool_sha256"]:
            bad.append(f"{name} pool")
        loaded[name] = (payload, pool)
    if bad:
        raise InputMismatch(
            "inputs differ from benchmarks/e2e/inputs.json: " + ", ".join(bad)
        )
    return loaded


def pin(pins: dict) -> dict:
    """Recompute every digest in ``pins`` from the current inputs."""
    for name, entry in pins["forests"].items():
        entry["forest_sha256"] = forest_digest(build_forest(forest_payload(name, pins)))
        entry["pool_sha256"] = pool_digest(load_pool(name, pins))
    return pins

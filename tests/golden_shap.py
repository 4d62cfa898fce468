"""Deterministic SHAP scenarios for the explain-kernel bit-identity goldens.

The tabulated path-pattern kernel must reproduce the per-sample
EXTEND/UNWIND kernel it replaced *bit for bit*.  This module fixes the
scenarios — the 15 cached figure-5 benchmark forests plus the imported
multiclass and categorical model fixtures, a few rows each — and
serialises every output of :func:`repro.explain.compute_shap`
(attributions, base values, margins) into plain JSON.

``python tests/golden_shap.py`` regenerates ``tests/goldens/shap.json``
(run it against the *reference* kernel only); ``tests/test_explain.py``
asserts the current kernel reproduces the file exactly.  The input rows
are stored in the file too, so the check never depends on a random
generator's stream.  Attributions are stored sparsely (flat index plus
value of every nonzero entry); JSON floats round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.datasets import DATASET_ORDER
from repro.explain import build_path_set, compute_shap
from repro.modelstore.importers import import_model
from repro.trees.forest import Forest
from repro.trees.io import forest_from_dict
from repro.trees.tree import LEAF

ROOT = Path(__file__).resolve().parent
GOLDEN_PATH = ROOT / "goldens" / "shap.json"
FOREST_CACHE = ROOT.parent / "benchmarks" / ".cache"
FIXTURES = ROOT / "fixtures"

#: Imported fixtures with several output classes or categorical splits.
FIXTURE_MODELS = (
    "lightgbm_multiclass_model.txt",
    "xgboost_multiclass_model.json",
    "sklearn_multiclass_model.json",
    "lightgbm_categorical_model.txt",
)

CASES = (*DATASET_ORDER, *FIXTURE_MODELS)

ROWS = 3


def fig5_forest(name: str) -> Forest:
    """The cached figure-5 benchmark forest of one dataset."""
    (path,) = FOREST_CACHE.glob(f"{name}-s7-k*-n6000.json")
    return forest_from_dict(json.loads(path.read_text()))


def load_forest(case: str) -> Forest:
    """A golden case's forest: a fig5 dataset name or a fixture file."""
    if case in FIXTURE_MODELS:
        return import_model(FIXTURES / case)
    return fig5_forest(case)


def make_rows(forest: Forest, seed: int) -> np.ndarray:
    """Rows built from the forest's own split values.

    Each feature takes one of its split thresholds, nudged to either
    side or left exactly on it (a tie), so rows take varied directions
    at every split; the last row also carries NaNs (default routing).
    Features no split uses stay 0.
    """
    rng = np.random.default_rng(seed)
    F = forest.n_attributes
    splits: list[list[float]] = [[] for _ in range(F)]
    for tree in forest.trees:
        for node in np.nonzero(tree.feature != LEAF)[0]:
            splits[int(tree.feature[node])].append(float(tree.threshold[node]))
    X = np.zeros((ROWS, F), dtype=np.float32)
    for f, values in enumerate(splits):
        if values:
            t = rng.choice(values, size=ROWS)
            X[:, f] = t + rng.choice([-0.25, 0.0, 0.25], size=ROWS) * np.maximum(
                np.abs(t), 1.0
            )
    X[-1, rng.random(F) < 0.2] = np.nan
    return X


def _rows_json(X: np.ndarray) -> list:
    return [[None if np.isnan(v) else float(v) for v in row] for row in X]


def rows_from_json(rows: list) -> np.ndarray:
    return np.array(
        [[np.nan if v is None else v for v in row] for row in rows], dtype=np.float32
    )


def run_case(forest: Forest, X: np.ndarray) -> dict:
    phi, base, margins = compute_shap(build_path_set(forest), X)
    flat = phi.ravel()
    nonzero = np.flatnonzero(flat)
    return {
        "phi_shape": list(phi.shape),
        "phi_index": nonzero.tolist(),
        "phi_value": flat[nonzero].tolist(),
        "base_values": base.tolist(),
        "margins": margins.tolist(),
    }


def phi_from_json(case: dict) -> np.ndarray:
    phi = np.zeros(int(np.prod(case["phi_shape"])), dtype=np.float64)
    phi[np.asarray(case["phi_index"], dtype=np.int64)] = case["phi_value"]
    return phi.reshape(case["phi_shape"])


def main() -> None:
    cases = {}
    for seed, name in enumerate(CASES):
        forest = load_forest(name)
        X = make_rows(forest, seed)
        cases[name] = {"X": _rows_json(X), **run_case(forest, X)}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"schema_version": 1, "cases": cases}, separators=(",", ":")) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)")


if __name__ == "__main__":
    main()

"""Framework importers: foreign model dumps → internal :class:`Forest`.

The table-stakes interchange paths for a production decision-forest
engine (Guan et al.'s database-perspective comparison lists them as the
baseline feature set): scikit-learn random forests and gradient
boosting, XGBoost, and LightGBM.  Each importer **parses the framework's
own dump format directly** — the frameworks themselves are never
imported, so none of them is a dependency.  Tests that want to check
against the real libraries import them optionally.

Split-semantics mapping (the part that silently corrupts models when
done sloppily):

* Our trees route ``x[feature] < threshold`` → left, NaN → the node's
  ``default_left`` path.
* **XGBoost** uses ``x < threshold`` → yes-branch and an explicit
  ``default_left`` flag: a direct 1:1 mapping.
* **LightGBM** and **scikit-learn** use ``x <= threshold`` → left.  We
  store ``nextafter(float32(threshold), +inf)`` so that
  ``x < threshold'`` holds exactly when ``x <= threshold`` does for
  every float32 ``x``.
* Leaf values: XGBoost/LightGBM leaves carry additive raw margins
  (``aggregation="sum"``, sigmoid link for binary objectives);
  scikit-learn random forests carry per-class probabilities which we
  reduce to the positive-class probability (``aggregation="mean"``).
* Visit counts (they drive Tahoe's probability-based node
  rearrangement): ``sum_hessian`` for XGBoost, ``internal_count`` /
  ``leaf_count`` for LightGBM, ``n_node_samples`` for scikit-learn;
  subtree-leaf-count fallback when a dump carries no statistics.

Multiclass models import as per-class tree groups: every tree carries a
``group`` (its output class), ``Forest.n_classes`` counts the classes,
and the engines produce ``(n, K)`` margins finalized with softmax (sum
aggregation) or per-class means (random forests).  XGBoost class
assignment comes from ``tree_info``, LightGBM's from tree order modulo
``num_class``, scikit-learn random forests replicate each estimator
into one probability tree per class.

LightGBM categorical splits (``decision_type & 1``) import as bitset
nodes: the tree-level ``cat_boundaries``/``cat_threshold`` pool maps
onto the tree's ``cat_offset``/``cat_count``/``cat_bits`` arrays and a
sample goes left exactly when its truncated integer category is a
member of the node's set (NaN follows the default path, negative or
out-of-range codes are non-members).

Malformed input fails here, at the boundary, with a
:class:`ModelImportError`: parallel node arrays must agree in length, a
dump that declares its feature width may not split past it, and the
imported forest must pass the same one-pass block check
(:func:`~repro.trees.flat.check_block`) that ``load_packed`` applies to
a ``.tahoe`` artifact — so a cold import and a packed load refuse the
same forests.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from repro.trees.flat import NodeBlock
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree

__all__ = [
    "ModelImportError",
    "from_lightgbm_text",
    "from_sklearn",
    "from_sklearn_export",
    "from_xgboost_dump",
    "from_xgboost_json",
    "import_model",
    "sklearn_to_export_dict",
]

#: Formats ``import_model`` understands, for error messages and --help.
SUPPORTED_FORMATS = (
    "tahoe-forest-json (repro save_forest, v1/v2)",
    "xgboost-json (Booster.save_model('model.json'))",
    "xgboost-dump (Booster.get_dump(dump_format='json'))",
    "lightgbm-text (Booster.save_model('model.txt'))",
    "sklearn-export (repro.modelstore.sklearn_to_export_dict)",
)


class ModelImportError(ValueError):
    """A model file/object could not be interpreted."""


def _parses(source: str):
    """Decorate an importer so that a parse failure on malformed
    ``source`` input (a missing key, a value of the wrong type or range,
    an array too short for the ids that index it) raises
    :class:`ModelImportError`."""

    def decorate(importer):
        @functools.wraps(importer)
        def wrapper(*args, **kwargs):
            try:
                return importer(*args, **kwargs)
            except ModelImportError:
                raise
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                raise ModelImportError(
                    f"malformed {source} model: {type(exc).__name__}: {exc}"
                ) from exc

        return wrapper

    return decorate


def _check_lengths(where: str, n: int, **arrays) -> None:
    """Refuse parallel node arrays whose lengths are not ``n``."""
    bad = {k: len(v) for k, v in arrays.items() if v is not None and len(v) != n}
    if bad:
        raise ModelImportError(f"{where}: expected {n} entries per array, got {bad}")


def _leq_to_lt(threshold) -> np.ndarray:
    """Map ``x <= t`` splits onto our ``x < t'`` predicate exactly.

    ``t' = nextafter(float32(t), +inf)``: the smallest float32 above
    ``float32(t)``, so ``x < t'`` ⇔ ``x <= float32(t)`` for float32 x.
    A non-finite ``float32(t)`` is kept as it is, for the block check to
    refuse (``nextafter`` would turn ``-inf`` into a finite threshold).
    """
    t = np.asarray(threshold, dtype=np.float32)
    return np.where(np.isfinite(t), np.nextafter(t, np.float32(np.inf)), t)


def _visit_counts(where: str, stats) -> np.ndarray:
    """XGBoost ``sum_hessian`` / ``cover`` as visit counts, rounded and
    floored at 1.  A non-finite, negative or int64-overflowing statistic
    is refused: its cast would skew the layout's edge probabilities."""
    stats = np.asarray(stats, dtype=np.float64)
    bad = ~((stats >= 0) & (stats < 2.0**63))  # NaN fails both
    if bad.any():
        raise ModelImportError(f"{where}: visit statistic {stats[bad][0]} is not a count")
    return np.maximum(1, np.round(stats)).astype(np.int64)


def _subtree_leaf_counts(left: list[int], right: list[int]) -> list[int]:
    """Leaves under each node — the visit-count fallback when a dump
    carries no sample statistics (uniform leaf-mass assumption)."""
    n = len(left)
    counts = [0] * n
    order = []  # post-order via stack
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in (left[node], right[node]):
            if child != LEAF:
                stack.append(child)
    for node in reversed(order):
        if left[node] == LEAF:
            counts[node] = 1
        else:
            counts[node] = counts[left[node]] + counts[right[node]]
    return counts


# ----------------------------------------------------------------------
# XGBoost — native save_model JSON
# ----------------------------------------------------------------------
@_parses("XGBoost JSON")
def from_xgboost_json(
    payload: dict, *, n_attributes: int | None = None, name: str = "xgboost"
) -> Forest:
    """Import an XGBoost ``Booster.save_model('*.json')`` payload.

    Handles the ``learner/gradient_booster/model/trees`` schema
    (XGBoost >= 1.0): per-tree parallel arrays with ``left_children``,
    ``split_indices``, ``split_conditions`` (threshold on splits, value
    on leaves), ``default_left`` and ``sum_hessian``.
    """
    try:
        learner = payload["learner"]
        model = learner["gradient_booster"]["model"]
        trees_raw = model["trees"]
        model_param = learner["learner_model_param"]
    except (KeyError, TypeError) as exc:
        raise ModelImportError(f"not an XGBoost save_model JSON: missing {exc}") from exc
    booster = learner["gradient_booster"].get("name", "gbtree")
    if booster not in ("gbtree", "dart"):
        raise ModelImportError(f"unsupported XGBoost booster {booster!r} (need gbtree)")
    num_class = int(model_param.get("num_class", "0") or 0)
    n_classes = num_class if num_class > 2 else 1
    objective = learner.get("objective", {}).get("name", "reg:squarederror")
    task = (
        "classification"
        if ("logistic" in objective or "binary" in objective or "multi" in objective)
        else "regression"
    )
    base_score = float(model_param.get("base_score", "0") or 0.0)
    if task == "classification" and n_classes == 1 and 0.0 < base_score < 1.0:
        # save_model stores base_score in probability space for logistic
        # objectives; our margin accumulator needs the log-odds.  The
        # multiclass margin keeps it raw: softmax is invariant to the
        # uniform shift, so probabilities match either way.
        base_score = math.log(base_score / (1.0 - base_score))
    n_features = int(model_param.get("num_feature", "0") or 0)
    tree_info = model.get("tree_info") or []
    if n_classes > 1 and len(tree_info) != len(trees_raw):
        raise ModelImportError(
            f"multiclass XGBoost model (num_class={num_class}) has no usable "
            f"tree_info ({len(tree_info)} entries for {len(trees_raw)} trees)"
        )

    trees = []
    for tree_ix, raw in enumerate(trees_raw):
        left = np.asarray(raw["left_children"], dtype=np.int32)
        hess = raw.get("sum_hessian")
        _check_lengths(
            f"XGBoost tree {tree_ix}",
            left.shape[0],
            right_children=raw["right_children"],
            split_indices=raw["split_indices"],
            split_conditions=raw["split_conditions"],
            default_left=raw.get("default_left"),
            sum_hessian=hess,
        )
        right = np.asarray(raw["right_children"], dtype=np.int32)
        split_idx = np.asarray(raw["split_indices"], dtype=np.int32)
        cond = np.asarray(raw["split_conditions"], dtype=np.float32)
        is_leaf = left == -1
        feature = np.where(is_leaf, LEAF, split_idx).astype(np.int32)
        threshold = np.where(is_leaf, np.float32(0.0), cond).astype(np.float32)
        value = np.where(is_leaf, cond, np.float32(0.0)).astype(np.float32)
        default = np.asarray(raw.get("default_left", np.ones(left.shape[0])), dtype=bool)
        if hess is not None:
            visit = _visit_counts(f"XGBoost tree {tree_ix} sum_hessian", hess)
        else:
            visit = np.asarray(
                _subtree_leaf_counts(left.tolist(), right.tolist()), dtype=np.int64
            )
        trees.append(
            DecisionTree(
                feature=feature,
                threshold=threshold,
                left=np.where(is_leaf, LEAF, left).astype(np.int32),
                right=np.where(is_leaf, LEAF, right).astype(np.int32),
                value=value,
                default_left=default,
                visit_count=visit,
                group=int(tree_info[tree_ix]) if n_classes > 1 else 0,
            )
        )
    return _imported_forest(
        "XGBoost",
        trees,
        n_attributes,
        n_features,
        n_classes=n_classes,
        task=task,
        aggregation="sum",
        base_score=base_score,
        learning_rate=1.0,  # shrinkage is already folded into leaf values
        name=name,
        metadata={"source_format": "xgboost-json", "objective": objective},
    )


# ----------------------------------------------------------------------
# XGBoost — get_dump(dump_format="json") per-tree dumps
# ----------------------------------------------------------------------
@_parses("XGBoost dump")
def from_xgboost_dump(
    dumps: list, *, n_attributes: int | None = None, name: str = "xgboost"
) -> Forest:
    """Import ``Booster.get_dump(dump_format='json')`` output: a list of
    nested per-tree dicts (``nodeid``/``split``/``yes``/``no``/``missing``
    inner nodes, ``leaf`` leaves; ``cover`` statistics when dumped
    ``with_stats=True``)."""
    if not isinstance(dumps, list) or not dumps:
        raise ModelImportError("XGBoost dump must be a non-empty list of tree dicts")
    trees = []
    for tree_ix, raw in enumerate(dumps):
        if isinstance(raw, str):
            raw = json.loads(raw)
        feature, threshold, left, right = [], [], [], []
        value, default, cover = [], [], []

        def grow(node: dict) -> int:
            idx = len(feature)
            feature.append(LEAF)
            threshold.append(0.0)
            left.append(LEAF)
            right.append(LEAF)
            value.append(0.0)
            default.append(True)
            cover.append(float(node.get("cover", 0.0)))
            if "leaf" in node:
                value[idx] = float(node["leaf"])
                return idx
            split = node["split"]
            if isinstance(split, str):
                stripped = split.lstrip("f")
                if not stripped.isdigit():
                    raise ModelImportError(
                        f"XGBoost dump uses feature name {split!r}; dump with "
                        "feature indices (no feature_map) to import"
                    )
                split = int(stripped)
            feature[idx] = int(split)
            threshold[idx] = float(node["split_condition"])
            children = {c["nodeid"]: c for c in node["children"]}
            default[idx] = node.get("missing", node["yes"]) == node["yes"]
            left[idx] = grow(children[node["yes"]])
            right[idx] = grow(children[node["no"]])
            return idx

        grow(raw)
        if any(cover):
            visit = _visit_counts(f"XGBoost dump tree {tree_ix} cover", cover)
        else:
            visit = np.asarray(_subtree_leaf_counts(left, right), dtype=np.int64)
        trees.append(
            DecisionTree(
                feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float32),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                value=np.asarray(value, dtype=np.float32),
                default_left=np.asarray(default, dtype=bool),
                visit_count=visit,
            )
        )
    return _imported_forest(
        "XGBoost dump",
        trees,
        n_attributes,
        0,
        task="classification",
        aggregation="sum",
        base_score=0.0,
        learning_rate=1.0,
        name=name,
        metadata={"source_format": "xgboost-dump"},
    )


# ----------------------------------------------------------------------
# LightGBM — save_model text format
# ----------------------------------------------------------------------
@_parses("LightGBM text")
def from_lightgbm_text(
    text: str, *, n_attributes: int | None = None, name: str = "lightgbm"
) -> Forest:
    """Import a LightGBM ``Booster.save_model('model.txt')`` dump.

    The text format is header key=value lines, then one ``Tree=i``
    section per tree with parallel arrays (``split_feature``,
    ``threshold``, ``left_child``/``right_child`` where a negative child
    ``c`` denotes leaf ``-(c)-1``, ``leaf_value``, ``decision_type``
    flag bits, ``internal_count``/``leaf_count``).
    """
    header: dict[str, str] = {}
    tree_sections: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("Tree="):
            current = {}
            tree_sections.append(current)
            continue
        if line in ("end of trees", "end of parameters") or line.startswith("pandas_"):
            current = None
            continue
        if "=" not in line:
            continue
        key, _, val = line.partition("=")
        (current if current is not None else header)[key] = val
    if not tree_sections:
        raise ModelImportError("not a LightGBM model dump: no Tree= sections found")
    num_class = int(header.get("num_class", "1") or 1)
    n_classes = num_class if num_class > 1 else 1
    if n_classes > 1 and len(tree_sections) % n_classes != 0:
        raise ModelImportError(
            f"multiclass LightGBM model (num_class={num_class}) has "
            f"{len(tree_sections)} trees, not a multiple of num_class"
        )
    objective = header.get("objective", "regression")
    task = (
        "classification"
        if objective.startswith(("binary", "multiclass", "multiclassova"))
        else "regression"
    )
    n_features = int(header.get("max_feature_idx", "-1")) + 1

    def ints(section: dict, key: str) -> list[int]:
        raw = section.get(key, "")
        return [int(float(v)) for v in raw.split()] if raw else []

    def floats(section: dict, key: str) -> list[float]:
        raw = section.get(key, "")
        return [float(v) for v in raw.split()] if raw else []

    trees = []
    for tree_ix, section in enumerate(tree_sections):
        group = tree_ix % n_classes if n_classes > 1 else 0
        num_leaves = int(section.get("num_leaves", "1"))
        leaf_value = floats(section, "leaf_value")
        leaf_count = ints(section, "leaf_count")
        _check_lengths(
            f"LightGBM tree {tree_ix} (num_leaves={num_leaves})",
            num_leaves,
            leaf_value=leaf_value,
            leaf_count=leaf_count or None,
        )
        if num_leaves == 1:
            stump = DecisionTree.single_leaf(
                leaf_value[0], visit_count=leaf_count[0] if leaf_count else 1
            )
            stump.group = group
            trees.append(stump)
            continue
        n_internal = num_leaves - 1
        split_feature = ints(section, "split_feature")
        raw_threshold = floats(section, "threshold")
        left_child = ints(section, "left_child")
        right_child = ints(section, "right_child")
        decision_type = ints(section, "decision_type") or [2] * n_internal
        internal_count = ints(section, "internal_count")
        num_cat = int(section.get("num_cat", "0") or 0)
        cat_boundaries = ints(section, "cat_boundaries")
        cat_threshold = ints(section, "cat_threshold")
        n = n_internal + num_leaves
        _check_lengths(
            f"LightGBM tree {tree_ix} ({n_internal} splits)",
            n_internal,
            split_feature=split_feature,
            threshold=raw_threshold,
            left_child=left_child,
            right_child=right_child,
            decision_type=decision_type,
            internal_count=internal_count or None,
        )

        def child_id(c: int) -> int:
            return c if c >= 0 else n_internal + (-c - 1)

        feature = np.full(n, LEAF, dtype=np.int32)
        threshold = np.zeros(n, dtype=np.float32)
        left = np.full(n, LEAF, dtype=np.int32)
        right = np.full(n, LEAF, dtype=np.int32)
        value = np.zeros(n, dtype=np.float32)
        default = np.ones(n, dtype=bool)
        visit = np.ones(n, dtype=np.int64)
        cat_offset = np.full(n, -1, dtype=np.int64) if num_cat else None
        cat_count = np.zeros(n, dtype=np.int32) if num_cat else None
        for i in range(n_internal):
            dt = decision_type[i]
            feature[i] = split_feature[i]
            if dt & 1:
                # Categorical split: `threshold` holds the index into the
                # tree's cat_boundaries, which bracket this node's slice
                # of the uint32 cat_threshold bitset pool.
                if not cat_boundaries or not cat_threshold:
                    raise ModelImportError(
                        f"categorical split at node {i} but the tree carries "
                        "no cat_boundaries/cat_threshold arrays"
                    )
                cat_ix = int(raw_threshold[i])
                if cat_ix < 0 or cat_ix + 1 >= len(cat_boundaries):
                    raise ModelImportError(
                        f"categorical split at node {i} references cat index "
                        f"{cat_ix} outside cat_boundaries"
                    )
                cat_offset[i] = cat_boundaries[cat_ix]
                cat_count[i] = cat_boundaries[cat_ix + 1] - cat_boundaries[cat_ix]
            else:
                threshold[i] = _leq_to_lt(raw_threshold[i])
            left[i] = child_id(left_child[i])
            right[i] = child_id(right_child[i])
            default[i] = bool(dt & 2)
            if internal_count:
                visit[i] = max(1, internal_count[i])
        for j in range(num_leaves):
            value[n_internal + j] = leaf_value[j]
            if leaf_count:
                visit[n_internal + j] = max(1, leaf_count[j])
        if not internal_count:
            visit = np.asarray(
                _subtree_leaf_counts(left.tolist(), right.tolist()), dtype=np.int64
            )
        trees.append(
            DecisionTree(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                value=value,
                default_left=default,
                visit_count=visit,
                group=group,
                cat_offset=cat_offset,
                cat_count=cat_count,
                cat_bits=np.asarray(cat_threshold, dtype=np.uint32)
                if num_cat
                else None,
            )
        )
    metadata = {"source_format": "lightgbm-text", "objective": objective}
    if objective.startswith("multiclassova"):
        # One-vs-all trains independent sigmoid heads, not a softmax.
        metadata["multiclass_link"] = "ovr"
    return _imported_forest(
        "LightGBM",
        trees,
        n_attributes,
        n_features,
        n_classes=n_classes,
        task=task,
        aggregation="sum",
        base_score=0.0,  # LightGBM folds the boost-from-average into tree 0
        learning_rate=1.0,  # shrinkage already applied to leaf values
        name=name,
        metadata=metadata,
    )


# ----------------------------------------------------------------------
# scikit-learn — export dict (and duck-typed live estimators)
# ----------------------------------------------------------------------
def sklearn_to_export_dict(model) -> dict:
    """Dump a *fitted* scikit-learn forest to the ``sklearn-export`` JSON
    schema by duck-typing its public attributes (``estimators_``, each
    tree's ``tree_`` arrays) — scikit-learn itself is never imported.

    Supported: ``RandomForestClassifier`` (binary and multiclass),
    ``RandomForestRegressor``, ``GradientBoostingClassifier`` (binary
    and multiclass) and ``GradientBoostingRegressor``.  A multiclass
    random forest replicates every estimator into one tree per class
    (class-``k`` replica carries the class-``k`` leaf probabilities and
    ``group: k``); multiclass gradient boosting flattens the
    ``(n_stages, K)`` estimator grid with ``group`` = stage column, and
    the per-class log priors become leaf-only prior trees (our
    ``base_score`` is a scalar, the priors are not).
    """
    estimators = getattr(model, "estimators_", None)
    if estimators is None:
        raise ModelImportError(
            "expected a fitted scikit-learn ensemble with .estimators_"
        )
    is_gb = hasattr(model, "learning_rate")
    classes = getattr(model, "classes_", None)
    n_classes = len(classes) if classes is not None and len(classes) > 2 else 1
    prior_trees: list[dict] = []
    if is_gb:
        learning_rate = float(model.learning_rate)
        stages = np.asarray(estimators, dtype=object)
        if stages.ndim == 2 and stages.shape[1] != 1:
            if stages.shape[1] != n_classes:
                raise ModelImportError(
                    f"gradient boosting grid has {stages.shape[1]} trees per "
                    f"stage but the model declares {n_classes} classes"
                )
            flat = [
                (stage[k], k) for stage in stages for k in range(stages.shape[1])
            ]
            # Prior leaves are pre-divided by the learning rate so the
            # margin's `lr * leaf_sum` restores the exact log prior.
            priors = _sklearn_gb_class_priors(model, n_classes)
            prior_trees = [
                _leaf_only_tree_dict(float(priors[k]) / learning_rate, k)
                for k in range(n_classes)
            ]
            base_score = 0.0
        else:
            flat = [
                (stage[0] if np.ndim(stage) else stage, 0) for stage in stages
            ]
            base_score = _sklearn_gb_base_score(model, classes is not None)
        model_type = (
            "gradient_boosting_classifier"
            if classes is not None
            else "gradient_boosting_regressor"
        )
    else:
        # A multiclass random forest replicates each estimator K times,
        # replica k carrying that class's leaf probability column.
        flat = [(est, k) for est in estimators for k in range(n_classes)]
        model_type = (
            "random_forest_classifier" if classes is not None else "random_forest_regressor"
        )
        learning_rate = 1.0
        base_score = 0.0

    trees = []
    for est, k in flat:
        t = est.tree_
        values = np.asarray(t.value, dtype=np.float64)  # (n_nodes, 1, n_outputs)
        if model_type == "random_forest_classifier":
            totals = values.sum(axis=2, keepdims=True)
            col = k if n_classes > 1 else 1
            node_value = (values[:, 0, col] / np.maximum(totals[:, 0, 0], 1e-12))
        else:
            node_value = values[:, 0, 0]
        tree_dict = {
            "children_left": np.asarray(t.children_left, dtype=int).tolist(),
            "children_right": np.asarray(t.children_right, dtype=int).tolist(),
            "feature": np.asarray(t.feature, dtype=int).tolist(),
            "threshold": np.asarray(t.threshold, dtype=float).tolist(),
            "value": np.asarray(node_value, dtype=float).tolist(),
            "n_node_samples": np.asarray(t.n_node_samples, dtype=int).tolist(),
        }
        if n_classes > 1:
            tree_dict["group"] = int(k)
        trees.append(tree_dict)
    payload = {
        "format": "sklearn-export",
        "version": 1,
        "model_type": model_type,
        "n_features": int(getattr(model, "n_features_in_", 0)),
        "learning_rate": learning_rate,
        "base_score": base_score,
        "trees": prior_trees + trees,
    }
    if n_classes > 1:
        payload["n_classes"] = int(n_classes)
    return payload


def _leaf_only_tree_dict(value: float, group: int) -> dict:
    """A one-leaf tree dict in the sklearn-export schema (GB priors)."""
    return {
        "children_left": [-1],
        "children_right": [-1],
        "feature": [-2],
        "threshold": [0.0],
        "value": [value],
        "n_node_samples": [1],
        "group": int(group),
        "is_prior": True,
    }


def _sklearn_gb_class_priors(model, n_classes: int) -> np.ndarray:
    """Per-class initial raw predictions (log priors) of a multiclass GB."""
    init = getattr(model, "init_", None)
    prior = getattr(init, "class_prior_", None) if init is not None else None
    if prior is not None and len(prior) == n_classes:
        p = np.clip(np.asarray(prior, dtype=np.float64), 1e-12, 1.0)
        return np.log(p)
    return np.zeros(n_classes, dtype=np.float64)


def _sklearn_gb_base_score(model, is_classifier: bool) -> float:
    """Best-effort initial raw prediction of a sklearn GB model."""
    init = getattr(model, "init_", None)
    if init is None:
        return 0.0
    if is_classifier:
        prior = getattr(init, "class_prior_", None)
        if prior is not None and len(prior) == 2 and 0.0 < prior[1] < 1.0:
            return float(math.log(prior[1] / prior[0]))
        return 0.0
    constant = getattr(init, "constant_", None)
    if constant is not None:
        return float(np.asarray(constant).ravel()[0])
    return 0.0


@_parses("sklearn-export")
def from_sklearn_export(
    payload: dict, *, n_attributes: int | None = None, name: str = "sklearn"
) -> Forest:
    """Import the ``sklearn-export`` JSON schema (see
    :func:`sklearn_to_export_dict`)."""
    if payload.get("format") != "sklearn-export":
        raise ModelImportError("not a sklearn-export payload (missing format tag)")
    model_type = payload.get("model_type", "")
    is_classifier = model_type.endswith("classifier")
    is_gb = model_type.startswith("gradient_boosting")
    n_classes = int(payload.get("n_classes", 1) or 1)
    trees = []
    for tree_ix, raw in enumerate(payload["trees"]):
        cl = np.asarray(raw["children_left"], dtype=np.int32)
        _check_lengths(
            f"sklearn-export tree {tree_ix}",
            cl.shape[0],
            **{
                k: raw[k]
                for k in ("children_right", "feature", "threshold", "value", "n_node_samples")
            },
        )
        cr = np.asarray(raw["children_right"], dtype=np.int32)
        feat = np.asarray(raw["feature"], dtype=np.int32)
        thresh = np.asarray(raw["threshold"], dtype=np.float64)
        val = np.asarray(raw["value"], dtype=np.float32)
        samples = np.asarray(raw["n_node_samples"], dtype=np.int64)
        is_leaf = cl == -1
        # sklearn splits are `x <= threshold` → left; shift to our `<`.
        threshold = np.where(is_leaf, np.float32(0.0), _leq_to_lt(thresh)).astype(
            np.float32
        )
        trees.append(
            DecisionTree(
                feature=np.where(is_leaf, LEAF, feat).astype(np.int32),
                threshold=threshold,
                left=np.where(is_leaf, LEAF, cl).astype(np.int32),
                right=np.where(is_leaf, LEAF, cr).astype(np.int32),
                value=np.where(is_leaf, val, np.float32(0.0)).astype(np.float32),
                default_left=np.ones(cl.shape[0], dtype=bool),
                visit_count=np.maximum(samples, 1),
                group=int(raw.get("group", 0)),
            )
        )
    return _imported_forest(
        "sklearn-export",
        trees,
        n_attributes,
        int(payload.get("n_features", 0)),
        n_classes=n_classes,
        task="classification" if is_classifier else "regression",
        aggregation="sum" if is_gb else "mean",
        base_score=float(payload.get("base_score", 0.0)),
        learning_rate=float(payload.get("learning_rate", 1.0)),
        name=name,
        metadata={"source_format": "sklearn-export", "model_type": model_type},
    )


def from_sklearn(model, *, n_attributes: int | None = None, name: str = "sklearn") -> Forest:
    """Import a fitted scikit-learn ensemble object (duck-typed)."""
    return from_sklearn_export(
        sklearn_to_export_dict(model), n_attributes=n_attributes, name=name
    )


# ----------------------------------------------------------------------
# Entry point: sniff a file and dispatch
# ----------------------------------------------------------------------
def import_model(
    path: str | Path,
    *,
    format: str = "auto",
    n_attributes: int | None = None,
    name: str | None = None,
) -> Forest:
    """Read a model file in any supported format and return a Forest.

    Args:
        path: model file (JSON or LightGBM text).
        format: ``auto`` (sniff), ``xgboost``, ``xgboost-dump``,
            ``lightgbm``, ``sklearn`` or ``forest-json`` (our native
            format).
        n_attributes: widen the forest's attribute space (e.g. to match
            a dataset whose tail features the model never split on).
        name: forest provenance label (file stem when omitted).

    Raises:
        ModelImportError: unrecognised or malformed input; the message
            lists every supported format.
    """
    path = Path(path)
    name = name if name is not None else path.stem
    text = path.read_text()
    if format == "auto":
        format = _sniff_text(text)
    if format == "lightgbm":
        return from_lightgbm_text(text, n_attributes=n_attributes, name=name)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelImportError(
            f"{path} is neither valid JSON nor a recognised text dump; "
            f"supported formats: {', '.join(SUPPORTED_FORMATS)}"
        ) from exc
    if format == "xgboost":
        return from_xgboost_json(payload, n_attributes=n_attributes, name=name)
    if format == "xgboost-dump":
        return from_xgboost_dump(payload, n_attributes=n_attributes, name=name)
    if format == "sklearn":
        return from_sklearn_export(payload, n_attributes=n_attributes, name=name)
    if format == "forest-json":
        from repro.trees.io import forest_from_dict

        return forest_from_dict(payload)
    raise ModelImportError(
        f"unknown import format {format!r}; supported formats: "
        f"{', '.join(SUPPORTED_FORMATS)}"
    )


def _sniff_text(text: str) -> str:
    """Classify a model file's contents into an import format name."""
    stripped = text.lstrip()
    if stripped[:1] in ("{", "["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelImportError(
                "file looks like JSON but does not parse; supported formats: "
                f"{', '.join(SUPPORTED_FORMATS)}"
            ) from exc
        if isinstance(payload, list):
            return "xgboost-dump"
        if "learner" in payload:
            return "xgboost"
        if payload.get("format") == "sklearn-export":
            return "sklearn"
        if "format_version" in payload and "trees" in payload:
            return "forest-json"
        raise ModelImportError(
            "unrecognised JSON model schema; supported formats: "
            f"{', '.join(SUPPORTED_FORMATS)}"
        )
    if "Tree=" in text and "num_leaves" in text:
        return "lightgbm"
    raise ModelImportError(
        "unrecognised model file; supported formats: "
        f"{', '.join(SUPPORTED_FORMATS)}"
    )


def _imported_forest(
    source: str, trees: list[DecisionTree], requested: int | None, declared: int, **kwargs
) -> Forest:
    """The imported :class:`Forest` at its resolved width, once its node
    block passes :func:`~repro.trees.flat.check_block` — the check
    ``load_packed`` applies to a ``.tahoe`` artifact."""
    if not trees:
        raise ModelImportError(f"{source} model contains no trees")
    width = _resolve_width(trees, requested, declared)
    NodeBlock.from_trees(trees).check(width)
    return Forest(trees=trees, n_attributes=width, **kwargs)


def _resolve_width(
    trees: list[DecisionTree], requested: int | None, declared: int
) -> int:
    """Final ``n_attributes``: the width the dump declares (what the trees
    use when it declares none), widened to what the caller requests.  A
    split past a declared width is left for the block check to refuse."""
    used = 0
    for tree in trees:
        idx = tree.feature[tree.feature >= 0]
        if idx.size:
            used = max(used, int(idx.max()) + 1)
    if requested is not None and requested < used:
        raise ModelImportError(
            f"n_attributes={requested} is narrower than the model "
            f"(features up to index {used - 1} are used)"
        )
    return max(declared or used, requested or 0, 1)

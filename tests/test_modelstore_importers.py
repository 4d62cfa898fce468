"""Importer semantics: foreign split/leaf/missing conventions must map
exactly onto our ``x < threshold``/``default_left`` trees."""

import functools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.modelstore import (
    ModelImportError,
    from_lightgbm_text,
    from_sklearn,
    from_sklearn_export,
    from_xgboost_dump,
    from_xgboost_json,
    import_model,
    sklearn_to_export_dict,
    sniff_format,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _sigmoid(m):
    return 1.0 / (1.0 + math.exp(-m))


def _xgb_payload(
    trees,
    objective="binary:logistic",
    base_score="5E-1",
    num_class="0",
    tree_info=None,
):
    model = {"trees": trees}
    if tree_info is not None:
        model["tree_info"] = tree_info
    return {
        "learner": {
            "gradient_booster": {"name": "gbtree", "model": model},
            "learner_model_param": {
                "base_score": base_score,
                "num_class": num_class,
                "num_feature": "2",
            },
            "objective": {"name": objective},
        }
    }


_XGB_TREE = {
    # x0<0.5 ? (x1<1.5 ? -0.2 : 0.7) : 0.3 ; missing x0 -> left
    "left_children": [1, 3, -1, -1, -1],
    "right_children": [2, 4, -1, -1, -1],
    "split_indices": [0, 1, 0, 0, 0],
    "split_conditions": [0.5, 1.5, 0.3, -0.2, 0.7],
    "default_left": [1, 0, 0, 0, 0],
    "sum_hessian": [100.0, 60.0, 40.0, 35.0, 25.0],
}


class TestXGBoostJSON:
    def test_split_leaf_and_missing_semantics(self):
        forest = from_xgboost_json(_xgb_payload([_XGB_TREE]))
        X = np.array(
            [[0.0, 0.0], [0.0, 2.0], [1.0, 0.0], [np.nan, 0.0]], dtype=np.float32
        )
        expected = [_sigmoid(m) for m in (-0.2, 0.7, 0.3, -0.2)]
        np.testing.assert_allclose(forest.predict(X), expected, rtol=1e-6)

    def test_logistic_base_score_is_logit_transformed(self):
        forest = from_xgboost_json(_xgb_payload([_XGB_TREE], base_score="0.75"))
        assert forest.base_score == pytest.approx(math.log(3.0))
        assert forest.task == "classification"
        assert forest.aggregation == "sum"

    def test_sum_hessian_becomes_visit_counts(self):
        forest = from_xgboost_json(_xgb_payload([_XGB_TREE]))
        np.testing.assert_array_equal(
            forest.trees[0].visit_count, [100, 60, 40, 35, 25]
        )

    def test_multiclass_imports_per_class_groups(self):
        def leaf(v):
            return {
                "left_children": [-1],
                "right_children": [-1],
                "split_indices": [0],
                "split_conditions": [v],
                "default_left": [0],
                "sum_hessian": [1.0],
            }

        forest = from_xgboost_json(
            _xgb_payload(
                [leaf(1.0), leaf(0.5), leaf(-0.5)],
                objective="multi:softprob",
                base_score="0.5",
                num_class="3",
                tree_info=[0, 1, 2],
            )
        )
        assert forest.n_classes == 3
        assert [t.group for t in forest.trees] == [0, 1, 2]
        probs = forest.predict(np.zeros((2, 2), dtype=np.float32))
        assert probs.shape == (2, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
        # softmax over the per-class margins (base_score shift cancels)
        e = np.exp([1.0, 0.5, -0.5])
        np.testing.assert_allclose(probs[0], e / e.sum(), rtol=1e-6)

    def test_multiclass_without_tree_info_rejected(self):
        with pytest.raises(ModelImportError, match="tree_info"):
            from_xgboost_json(_xgb_payload([_XGB_TREE], num_class="3"))

    def test_regression_objective_keeps_base_score(self):
        forest = from_xgboost_json(
            _xgb_payload([_XGB_TREE], objective="reg:squarederror", base_score="2.5")
        )
        assert forest.task == "regression"
        assert forest.base_score == pytest.approx(2.5)

    def test_not_xgboost_json(self):
        with pytest.raises(ModelImportError, match="save_model"):
            from_xgboost_json({"nope": 1})


class TestXGBoostDump:
    DUMP = [
        {
            "nodeid": 0,
            "split": "f0",
            "split_condition": 0.5,
            "yes": 1,
            "no": 2,
            "missing": 2,
            "children": [{"nodeid": 1, "leaf": -1.0}, {"nodeid": 2, "leaf": 2.0}],
        }
    ]

    def test_yes_no_missing(self):
        forest = from_xgboost_dump(self.DUMP)
        X = np.array([[0.0], [1.0], [np.nan]], dtype=np.float32)
        expected = [_sigmoid(m) for m in (-1.0, 2.0, 2.0)]  # missing -> no branch
        np.testing.assert_allclose(forest.predict(X), expected, rtol=1e-6)

    def test_named_features_rejected_with_hint(self):
        dump = [dict(self.DUMP[0], split="age")]
        with pytest.raises(ModelImportError, match="feature name"):
            from_xgboost_dump(dump)

    def test_accepts_json_strings_per_tree(self):
        forest = from_xgboost_dump([json.dumps(self.DUMP[0])])
        assert forest.n_trees == 1

    @pytest.mark.parametrize("cover", [float("nan"), float("inf"), -2.0, 1e39])
    def test_bad_cover_is_refused(self, cover):
        root = dict(self.DUMP[0], cover=4.0)
        root["children"] = [dict(root["children"][0], cover=cover), root["children"][1]]
        with pytest.raises(ModelImportError, match="cover: visit statistic"):
            from_xgboost_dump([root])


class TestLightGBM:
    TEXT = """tree
num_class=1
max_feature_idx=1
objective=binary sigmoid:1

Tree=0
num_leaves=3
split_feature=0 1
threshold=0.5 1.5
decision_type=2 0
left_child=-1 -2
right_child=1 -3
leaf_value=-0.2 0.7 0.3
leaf_count=60 25 15
internal_count=100 40

end of trees
"""

    def test_leq_semantics_inclusive_boundary(self):
        forest = from_lightgbm_text(self.TEXT)
        # LightGBM routes x <= t left: the boundary value itself must go left.
        X = np.array(
            [[0.5, 0.0], [1.0, 1.5], [1.0, 2.0], [np.nan, 0.0], [1.0, np.nan]],
            dtype=np.float32,
        )
        expected = [_sigmoid(m) for m in (-0.2, 0.7, 0.3, -0.2, 0.3)]
        np.testing.assert_allclose(forest.predict(X), expected, rtol=1e-6)

    def test_counts_and_metadata(self):
        forest = from_lightgbm_text(self.TEXT)
        tree = forest.trees[0]
        # internal nodes first (ids 0..n_internal-1), then leaves.
        np.testing.assert_array_equal(tree.visit_count, [100, 40, 60, 25, 15])
        assert forest.metadata["source_format"] == "lightgbm-text"
        assert forest.task == "classification"

    CAT_TEXT = """tree
num_class=1
max_feature_idx=1
objective=binary sigmoid:1

Tree=0
num_leaves=3
num_cat=1
split_feature=0 1
threshold=0 1.5
decision_type=1 0
left_child=-1 -2
right_child=1 -3
leaf_value=-0.2 0.7 0.3
leaf_count=60 25 15
internal_count=100 40
cat_boundaries=0 1
cat_threshold=10

end of trees
"""

    def test_categorical_split_bitset_routing(self):
        # Node 0 is categorical on feature 0 with bitset 10 = {1, 3}:
        # members go left (leaf -0.2), everything else (including NaN,
        # default right for decision_type=1) goes to the numeric subtree.
        forest = from_lightgbm_text(self.CAT_TEXT)
        assert forest.has_categorical
        X = np.array(
            [[1.0, 0.0], [3.0, 0.0], [2.0, 1.0], [2.0, 2.0], [np.nan, 2.0], [-1.0, 2.0]],
            dtype=np.float32,
        )
        expected = [_sigmoid(m) for m in (-0.2, -0.2, 0.7, 0.3, 0.3, 0.3)]
        np.testing.assert_allclose(forest.predict(X), expected, rtol=1e-6)

    def test_categorical_without_bitsets_rejected(self):
        text = self.CAT_TEXT.replace("cat_boundaries=0 1\ncat_threshold=10\n", "")
        with pytest.raises(ModelImportError, match="cat_boundaries"):
            from_lightgbm_text(text)

    def test_multiclass_tree_groups_and_softmax(self):
        stump = """Tree={i}
num_leaves=1
leaf_value={v}

"""
        text = (
            "tree\nnum_class=3\nmax_feature_idx=1\nobjective=multiclass "
            "num_class:3\n\n"
            + "".join(
                stump.format(i=i, v=v)
                for i, v in enumerate([1.0, 0.5, -0.5, 0.2, -0.2, 0.1])
            )
            + "end of trees\n"
        )
        forest = from_lightgbm_text(text, n_attributes=2)
        assert forest.n_classes == 3
        # tree i belongs to class i % num_class
        assert [t.group for t in forest.trees] == [0, 1, 2, 0, 1, 2]
        probs = forest.predict(np.zeros((1, 2), dtype=np.float32))
        e = np.exp([1.2, 0.3, -0.4])
        np.testing.assert_allclose(probs[0], e / e.sum(), rtol=1e-6)

    def test_multiclass_tree_count_mismatch_rejected(self):
        text = self.TEXT.replace("num_class=1", "num_class=3")
        with pytest.raises(ModelImportError, match="multiple of num_class"):
            from_lightgbm_text(text)

    def test_single_leaf_tree(self):
        text = """tree
num_class=1
max_feature_idx=0
objective=regression

Tree=0
num_leaves=1
leaf_value=1.25

end of trees
"""
        forest = from_lightgbm_text(text, n_attributes=1)
        np.testing.assert_allclose(
            forest.predict(np.zeros((2, 1), np.float32)), [1.25, 1.25]
        )

    def test_not_lightgbm(self):
        with pytest.raises(ModelImportError, match="Tree="):
            from_lightgbm_text("just some text")


class _FakeTree:
    """Duck-typed stand-in for sklearn's ``tree_`` (sklearn not installed)."""

    def __init__(self, value):
        self.children_left = np.array([1, -1, -1])
        self.children_right = np.array([2, -1, -1])
        self.feature = np.array([0, -2, -2])
        self.threshold = np.array([0.5, -2.0, -2.0])
        self.value = np.asarray(value)
        self.n_node_samples = np.array([100, 60, 40])


class _FakeEstimator:
    def __init__(self, value):
        self.tree_ = _FakeTree(value)


class TestSklearn:
    def test_rf_classifier_boundary_and_mean(self):
        # Two trees; class counts (value shape (n, 1, 2)) -> P(class 1).
        rf = type("RF", (), {})()
        rf.estimators_ = [
            _FakeEstimator([[[90, 10]], [[55, 5]], [[35, 5]]]),
            _FakeEstimator([[[50, 50]], [[10, 50]], [[40, 0]]]),
        ]
        rf.classes_ = np.array([0, 1])
        rf.n_features_in_ = 1
        forest = from_sklearn(rf)
        assert forest.aggregation == "mean"
        # sklearn routes x <= 0.5 left: probabilities (5/60, 50/60) then
        # (5/40, 0/40) averaged.
        X = np.array([[0.5], [0.6]], dtype=np.float32)
        np.testing.assert_allclose(
            forest.predict(X),
            [(5 / 60 + 50 / 60) / 2, (5 / 40 + 0 / 40) / 2],
            rtol=1e-6,
        )

    def test_gb_regressor_sum_with_learning_rate(self):
        gb = type("GB", (), {})()
        gb.estimators_ = np.array(
            [[_FakeEstimator([[[0.0]], [[1.0]], [[-1.0]]])],
             [_FakeEstimator([[[0.0]], [[0.5]], [[0.25]]])]],
            dtype=object,
        )
        gb.learning_rate = 0.1
        gb.init_ = type("Init", (), {"constant_": np.array([[3.0]])})()
        forest = from_sklearn(gb)
        assert forest.aggregation == "sum"
        assert forest.task == "regression"
        X = np.array([[0.0], [1.0]], dtype=np.float32)
        np.testing.assert_allclose(
            forest.predict(X), [3.0 + 0.1 * 1.5, 3.0 + 0.1 * (-0.75)], rtol=1e-6
        )

    def test_multiclass_rf_replicates_per_class(self):
        rf = type("RF", (), {})()
        rf.estimators_ = [
            _FakeEstimator([[[80, 10, 10]], [[50, 5, 5]], [[30, 5, 5]]]),
            _FakeEstimator([[[20, 40, 40]], [[10, 40, 10]], [[10, 0, 30]]]),
        ]
        rf.classes_ = np.array([0, 1, 2])
        rf.n_features_in_ = 1
        forest = from_sklearn(rf)
        assert forest.n_classes == 3
        # each estimator replicated once per class, replica k grouped k
        assert [t.group for t in forest.trees] == [0, 1, 2, 0, 1, 2]
        X = np.array([[0.0], [1.0]], dtype=np.float32)
        probs = forest.predict(X)
        assert probs.shape == (2, 3)
        # float32 leaves: the per-class means sum to 1 up to rounding
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
        # left leaves: (50,5,5)/60 and (10,40,10)/60 averaged per class
        np.testing.assert_allclose(
            probs[0],
            [(50 / 60 + 10 / 60) / 2, (5 / 60 + 40 / 60) / 2, (5 / 60 + 10 / 60) / 2],
            rtol=1e-6,
        )

    def test_multiclass_gb_flattens_stage_grid_with_priors(self):
        gb = type("GB", (), {})()
        gb.estimators_ = np.array(
            [
                [
                    _FakeEstimator([[[0.0]], [[1.0]], [[-1.0]]]),
                    _FakeEstimator([[[0.0]], [[0.5]], [[0.25]]]),
                    _FakeEstimator([[[0.0]], [[-0.5]], [[0.75]]]),
                ]
            ],
            dtype=object,
        )
        gb.learning_rate = 0.1
        gb.classes_ = np.array([0, 1, 2])
        gb.n_features_in_ = 1
        prior = np.array([0.5, 0.3, 0.2])
        gb.init_ = type("Init", (), {"class_prior_": prior})()
        forest = from_sklearn(gb)
        assert forest.n_classes == 3
        assert forest.aggregation == "sum"
        X = np.array([[0.0]], dtype=np.float32)
        margins = np.log(prior) + 0.1 * np.array([1.0, 0.5, -0.5])
        e = np.exp(margins - margins.max())
        np.testing.assert_allclose(forest.predict(X)[0], e / e.sum(), rtol=1e-6)

    def test_export_dict_round_trips_through_json(self):
        rf = type("RF", (), {})()
        rf.estimators_ = [_FakeEstimator([[[90, 10]], [[55, 5]], [[35, 5]]])]
        rf.classes_ = np.array([0, 1])
        rf.n_features_in_ = 1
        payload = json.loads(json.dumps(sklearn_to_export_dict(rf)))
        forest = from_sklearn_export(payload)
        assert forest.n_trees == 1

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(ModelImportError, match="format"):
            from_sklearn_export({"format": "other"})


class TestImportModelSniffing:
    @pytest.mark.parametrize(
        "fixture, fmt",
        [
            ("xgboost_model.json", "xgboost"),
            ("sklearn_model.json", "sklearn"),
            ("lightgbm_model.txt", "lightgbm"),
        ],
    )
    def test_fixture_sniff_and_import(self, fixture, fmt):
        path = FIXTURES / fixture
        assert sniff_format(path) == fmt
        forest = import_model(path)
        assert forest.n_attributes == 16
        X = np.random.default_rng(0).normal(0.45, 0.2, size=(8, 16)).astype(np.float32)
        preds = forest.predict(X)
        assert np.isfinite(preds).all()

    def test_native_forest_json_sniffs(self, small_forest, tmp_path):
        from repro.trees.io import save_forest

        path = tmp_path / "native.json"
        save_forest(small_forest, path)
        assert sniff_format(path) == "forest-json"
        restored = import_model(path)
        assert restored.n_trees == small_forest.n_trees

    def test_unknown_file_error_lists_formats(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_text("certainly not a model")
        with pytest.raises(ModelImportError) as err:
            import_model(path)
        message = str(err.value)
        for fmt in ("xgboost-json", "lightgbm-text", "sklearn-export"):
            assert fmt in message

    def test_unknown_json_schema_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ModelImportError, match="supported formats"):
            import_model(path)

    def test_n_attributes_widens(self):
        forest = import_model(FIXTURES / "lightgbm_model.txt", n_attributes=40)
        assert forest.n_attributes == 40

    def test_n_attributes_too_narrow_rejected(self):
        with pytest.raises(ModelImportError, match="narrower"):
            import_model(FIXTURES / "xgboost_model.json", n_attributes=2)


# ----------------------------------------------------------------------
# Malformed input: every mutation is refused or changes nothing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutation:
    """One edit of one node array of one fixture tree: ``set`` entry
    ``node`` to ``value``, or ``drop``/``append`` the array's last entry."""

    fixture: str
    tree: int
    key: str
    op: str = "set"
    node: int = 0
    value: object = None


_FIXTURE_FILES = tuple(sorted(p.name for p in FIXTURES.iterdir()))

#: Node arrays by the role a mutation plays on them, per format.
_ROLES = {
    "xgboost": dict(
        length=("left_children", "right_children", "split_indices", "split_conditions",
                "default_left", "sum_hessian"),
        child=("left_children", "right_children"),
        # Thresholds and leaf values alike, and the visit statistic.
        non_finite=("split_conditions", "sum_hessian"),
        feature=("split_indices",),
    ),
    "lightgbm": dict(
        length=("split_feature", "threshold", "decision_type", "left_child", "right_child",
                "leaf_value", "leaf_count", "internal_count"),
        child=("left_child", "right_child"),
        non_finite=("threshold", "leaf_value"),
        feature=("split_feature",),
    ),
    "sklearn": dict(
        length=("children_left", "children_right", "feature", "threshold", "value",
                "n_node_samples"),
        child=("children_left", "children_right"),
        non_finite=("threshold", "value"),
        feature=("feature",),
    ),
}

#: NaN, both infinities, and a float64 that overflows float32.
_NON_FINITE = (float("nan"), float("inf"), float("-inf"), 1e39)

#: Malformed inputs the importers must refuse, each with the problem its
#: error names.
_PROBES = [
    (Mutation("xgboost_model.json", 0, "split_conditions", value=float("nan")),
     "non-finite threshold"),
    (Mutation("xgboost_model.json", 0, "split_conditions", node=7, value=float("inf")),
     "non-finite leaf value"),
    (Mutation("xgboost_model.json", 0, "split_indices", value=10**6), "feature >= 16"),
    (Mutation("xgboost_model.json", 0, "right_children", op="drop"), "right_children"),
    (Mutation("lightgbm_model.txt", 0, "threshold", value=float("nan")),
     "non-finite threshold"),
    (Mutation("lightgbm_model.txt", 0, "num_leaves", value=9), "num_leaves=9"),
    (Mutation("xgboost_model.json", 0, "sum_hessian", node=1, value=float("nan")),
     "sum_hessian: visit statistic nan is not a count"),
    (Mutation("xgboost_model.json", 0, "sum_hessian", node=1, value=-3.0),
     "sum_hessian: visit statistic -3.0 is not a count"),
]


def _lgb_lines(fixture: str) -> tuple[list[str], dict]:
    """The fixture's lines and the line number of every ``(tree, key)``."""
    lines = (FIXTURES / fixture).read_text().splitlines()
    index, tree = {}, -1
    for i, line in enumerate(lines):
        if line.startswith("Tree="):
            tree += 1
        elif tree >= 0 and "=" in line:
            index[(tree, line.partition("=")[0])] = i
    return lines, index


def _json_trees(fixture: str, payload: dict) -> list[dict]:
    if fixture.startswith("xgboost"):
        return payload["learner"]["gradient_booster"]["model"]["trees"]
    return payload["trees"]


@functools.cache
def _tree_arrays(fixture: str) -> list[dict]:
    """Every tree's node arrays, by key, as the fixture stores them."""
    if fixture.startswith("lightgbm"):
        lines, index = _lgb_lines(fixture)
        trees: list[dict] = []
        for (tree, key), i in index.items():
            if tree == len(trees):
                trees.append({})
            trees[tree][key] = lines[i].partition("=")[2].split()
        return trees
    return _json_trees(fixture, json.loads((FIXTURES / fixture).read_text()))


def _edit(array: list, m: Mutation, convert=lambda v: v) -> None:
    if m.op == "drop":
        array.pop()
    elif m.op == "append":
        array.append(array[-1])
    else:
        array[m.node] = convert(m.value)


def _import_mutated(m: Mutation):
    if m.fixture.startswith("lightgbm"):
        lines, index = _lgb_lines(m.fixture)
        i = index[(m.tree, m.key)]
        key, _, raw = lines[i].partition("=")
        tokens = raw.split()
        _edit(tokens, m, str)
        lines[i] = f"{key}={' '.join(tokens)}"
        return from_lightgbm_text("\n".join(lines) + "\n")
    payload = json.loads((FIXTURES / m.fixture).read_text())
    _edit(_json_trees(m.fixture, payload)[m.tree][m.key], m)
    importer = from_xgboost_json if m.fixture.startswith("xgboost") else from_sklearn_export
    return importer(payload)


@functools.cache
def _unmutated(fixture: str):
    return import_model(FIXTURES / fixture)


@st.composite
def mutations(draw) -> Mutation:
    fixture = draw(st.sampled_from(_FIXTURE_FILES))
    lightgbm = fixture.startswith("lightgbm")
    arrays = _tree_arrays(fixture)
    tree = draw(st.integers(0, len(arrays) - 1))
    role = draw(st.sampled_from(["length", "child", "non_finite", "feature"]))
    roles = _ROLES[fixture.split("_")[0]]
    key = draw(st.sampled_from([k for k in roles[role] if k in arrays[tree]]))
    if role == "length":
        return Mutation(fixture, tree, key, op=draw(st.sampled_from(["drop", "append"])))
    n = len(arrays[tree][key])
    node = draw(st.integers(0, n - 1))
    if role == "non_finite":
        value = draw(st.sampled_from(_NON_FINITE))
    elif role == "feature":
        width = _unmutated(fixture).n_attributes
        value = draw(st.integers(width, 2**31 - 1) | st.just(2**40))
    else:
        # A LightGBM tree with n splits has 2n + 1 nodes; leaf j is -(j + 1).
        size = 2 * n + 1 if lightgbm else n
        dangling = st.integers(size, 2**31 - 1)
        if lightgbm:
            dangling |= st.integers(-(2**31), -(n + 2))
        value = draw(st.just(node) | dangling)  # a self loop or a dangling id
    return Mutation(fixture, tree, key, node=node, value=value)


def _with_probes(test):
    for mutation, _ in _PROBES:
        test = example(mutation)(test)
    return test


class TestMalformedInput:
    @pytest.mark.parametrize("mutation, problem", _PROBES)
    def test_probe_is_refused(self, mutation, problem):
        with pytest.raises(ModelImportError, match=re.escape(problem)):
            _import_mutated(mutation)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @_with_probes
    @given(mutations())
    def test_mutation_is_refused_or_harmless(self, mutation):
        try:
            forest = _import_mutated(mutation)
        except ModelImportError:
            return
        assert forest.fingerprint() == _unmutated(mutation.fixture).fingerprint()

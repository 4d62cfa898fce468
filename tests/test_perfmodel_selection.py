"""Held-out check of the §6 selector against the simulator's optimum.

The models were fixed on the fig5 forests; these forests come from the
conversion property test's tree generator instead (leaf, chain and bushy
trees of depth up to 13 in the same mix), at sizes from one that fits a
block's shared memory to ones whose single trees do not.  On each, the
strategy the engine picks must run close to the fastest strategy a
``strategy_override`` run measures: the paper's mispredictions land
within about 5 % of the optimum.
"""

import numpy as np
import pytest

from repro.core import TahoeConfig, TahoeEngine
from repro.gpusim.specs import GPU_SPECS
from repro.strategies import ALL_STRATEGIES
from repro.trees.forest import Forest
from tests.test_property_conversion import _grow

_KINDS = ("leaf", "chain", "bushy", "bushy")
#: (seed, trees) of each held-out forest.
_FORESTS = ((11, 8), (12, 24), (13, 64), (14, 128), (15, 200), (16, 300))


@pytest.fixture(scope="module")
def spec():
    # The benchmark's compute scale: a 1,024-row batch fills the device.
    return GPU_SPECS["P100"].scaled(compute=1 / 16)


@pytest.fixture(scope="module")
def held_out():
    cases = []
    for seed, n_trees in _FORESTS:
        rng = np.random.default_rng(seed)
        trees = [_grow(rng, _KINDS[rng.integers(len(_KINDS))]) for _ in range(n_trees)]
        X = rng.standard_normal((1024, 5)).astype(np.float32)
        cases.append((Forest(trees=trees, n_attributes=5), X))
    return cases


@pytest.mark.parametrize("n_rows", [256, 1024])
def test_auto_pick_is_near_the_best_override(held_out, spec, n_rows):
    penalties = []
    for forest, X in held_out:
        auto = TahoeEngine(forest, spec)
        auto.predict(X)  # the coalescing probe runs on the first batch
        picked = auto.predict(X[:n_rows]).total_time
        best = np.inf
        for cls in ALL_STRATEGIES:
            if not cls().is_applicable(auto.layout, spec):
                continue
            config = TahoeConfig(strategy_override=cls.name)
            forced = TahoeEngine(forest, spec, config=config).predict(X[:n_rows])
            best = min(best, forced.total_time)
        penalties.append(picked / best)
    assert min(penalties) >= 1.0 - 1e-12
    assert float(np.exp(np.mean(np.log(penalties)))) <= 1.05

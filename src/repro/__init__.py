"""repro — reproduction of Tahoe (EuroSys '21).

Tahoe is a tree structure-aware inference engine for decision-tree
ensembles on GPU (Xie et al., EuroSys 2021).  This package rebuilds the
complete system in Python on top of a trace-driven GPU simulator: the
training substrate, the reorg/adaptive forest formats, the SimHash+LSH
tree-similarity pipeline, the four inference strategies, the analytic
performance models, and the adaptive engine that ties them together.

Quickstart::

    from repro import TahoeEngine, FILEngine, GPU_SPECS
    from repro.trees import train_forest_for_spec

    workload = train_forest_for_spec("Higgs", scale=0.003, tree_scale=0.03)
    spec = GPU_SPECS["P100"]
    tahoe = TahoeEngine(workload.forest, spec)
    fil = FILEngine(workload.forest, spec)
    X = workload.split.test.X
    print("speedup:", fil.predict(X).total_time / tahoe.predict(X).total_time)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    ConversionStats,
    Engine,
    EngineResult,
    FILEngine,
    ObsConfig,
    TahoeConfig,
    TahoeEngine,
)
from repro.gpusim.specs import GPU_SPECS, GPUSpec
from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

__version__ = "1.2.0"

__all__ = [
    "ConversionStats",
    "DecisionTree",
    "Engine",
    "EngineResult",
    "FILEngine",
    "Forest",
    "GPUSpec",
    "GPU_SPECS",
    "ObsConfig",
    "TahoeConfig",
    "TahoeEngine",
    "__version__",
]

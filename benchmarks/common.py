"""Shared benchmark harness.

Centralises the scale policy (DESIGN.md section 5): every figure/table
benchmark runs the paper's experiment on proportionally scaled-down
workloads and GPUs.

Scale policy
------------

* **Samples** — each Table 2 dataset is synthesised with about
  ``TARGET_TOTAL_SAMPLES`` rows (the paper's datasets span 2 K–10.5 M;
  anything smaller than the target keeps its paper size).  70/30 split as
  in the paper.
* **Trees** — tree counts stay at the paper's Table 2 values wherever
  affordable; only the giant ensembles (Higgs 3 000, SUSY/hepmass/aloi
  2 000, allstate 800) are capped at 300 trees and the very wide+deep
  GBDTs (SVHN, cup98) at 32/60.  This keeps every forest's size relative
  to shared-memory capacity close to the paper's, which is what decides
  the figure 5 strategy classes.
* **GPU compute** — specs are scaled by the per-GPU ``COMPUTE_SCALE`` so
  the scaled "high parallelism" batches saturate the simulated device
  exactly as 100 K-sample batches saturate a real one, while every
  device keeps a realistic handful of SMs.
* **Shared memory** — per-GPU capacity is scaled so the *applicability
  pattern* of the shared-forest strategy matches the paper (figure 5: it
  fits HOCK, cifar10, ijcnn1, phishing and letter, and nothing else).
  The K80/P100 capacity is calibrated once from the trained forests; the
  V100 keeps its 2x capacity ratio.

Trained forests are cached on disk (training the wide datasets takes
tens of seconds); delete ``benchmarks/.cache`` to force retraining.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import TahoeConfig, convert_forest
from repro.datasets import DATASETS, DATASET_ORDER, load_dataset, train_test_split
from repro.gpusim.specs import GPU_SPECS, GPUSpec
from repro.trees.io import forest_from_dict, forest_to_dict
from repro.trees.training import TrainedWorkload, train_forest_for_spec

BENCH_SEED = 7
#: Per-GPU compute scale: chosen so every scaled device keeps 3-5 SMs
#: (the K80 has only 13 to begin with; 1/16 would leave it a single SM
#: and starve block concurrency in a way no real K80 exhibits).
COMPUTE_SCALE = {"K80": 1 / 4, "P100": 1 / 16, "V100": 1 / 16}
TARGET_TOTAL_SAMPLES = 6000

#: Benchmark tree counts: Table 2 values, capped where simulation or
#: training cost would explode (giant ensembles and wide+deep GBDTs).
BENCH_TREES = {
    "HOCK": 8,
    "Higgs": 300,
    "SUSY": 300,
    "SVHN": 32,
    "allstate": 300,
    "cifar10": 10,
    "covtype": 500,
    "cup98": 60,
    "gisette": 20,
    "year": 150,
    "hepmass": 300,
    "ijcnn1": 10,
    "phishing": 15,
    "aloi": 300,
    "letter": 150,
}
HIGH_BATCH = None  # whole inference set (the paper's 100K regime)
LOW_BATCH = 100  # the paper's low-parallelism regime
LOW_TOTAL = 600  # samples pushed through the low-parallelism regime

#: Datasets figure 5 reports as shared-forest winners (forest fits).
SHARED_FOREST_FITS = {"HOCK", "cifar10", "ijcnn1", "phishing", "letter"}

_CACHE_DIR = Path(__file__).resolve().parent / ".cache"
_RESULTS_DIR = Path(__file__).resolve().parent / "results"


def dataset_scale(name: str) -> float:
    """Per-dataset sample scale hitting ``TARGET_TOTAL_SAMPLES``."""
    return min(1.0, TARGET_TOTAL_SAMPLES / DATASETS[name].n_samples)


@functools.lru_cache(maxsize=None)
def workload(name: str, seed: int = BENCH_SEED) -> TrainedWorkload:
    """The trained benchmark forest + split for one dataset (disk-cached)."""
    _CACHE_DIR.mkdir(exist_ok=True)
    n_trees = BENCH_TREES[name]
    cache = _CACHE_DIR / f"{name}-s{seed}-k{n_trees}-n{TARGET_TOTAL_SAMPLES}.json"
    data = load_dataset(name, scale=dataset_scale(name), seed=seed, attribute_cap=512)
    split = train_test_split(data, train_fraction=0.7, seed=seed)
    if cache.exists():
        forest = forest_from_dict(json.loads(cache.read_text()))
        return TrainedWorkload(forest=forest, split=split, dataset_name=name)
    trained = train_forest_for_spec(
        name, scale=dataset_scale(name), tree_scale=1.0, max_trees=n_trees, seed=seed
    )
    cache.write_text(json.dumps(forest_to_dict(trained.forest)))
    return trained


@functools.lru_cache(maxsize=None)
def shared_capacity_scale() -> float:
    """Calibrate the shared-memory scale from the trained forests.

    Chooses the capacity threshold (against the K80/P100 48 KiB baseline)
    that maximises agreement with the paper's applicability pattern —
    perfect separation may be impossible because small paper forests
    (HOCK trains 8 trees) scale down far less than big ones (covtype
    trains 500), so their relative sizes shift.  Disagreements are
    reported by the figure 5 benchmark.
    """
    sizes = {name: adaptive_layout(name).total_bytes for name in DATASET_ORDER}
    candidates = sorted(set(sizes.values()))
    best_threshold, best_score = None, -1
    for i, cut in enumerate(candidates):
        # Capacity midway between this size and the next one up.
        upper = candidates[i + 1] if i + 1 < len(candidates) else cut * 2
        threshold = float(np.sqrt(cut * upper))
        score = sum(
            (sizes[name] <= threshold) == (name in SHARED_FOREST_FITS)
            for name in DATASET_ORDER
        )
        if score > best_score:
            best_threshold, best_score = threshold, score
    return best_threshold / (48 * 1024)


@functools.lru_cache(maxsize=None)
def adaptive_layout(name: str):
    """Adaptive layout of the benchmark forest (cached per dataset)."""
    return convert_forest(workload(name).forest, TahoeConfig())[0]


@functools.lru_cache(maxsize=None)
def bench_spec(gpu: str) -> GPUSpec:
    """The scaled GPU spec used by every benchmark."""
    return GPU_SPECS[gpu].scaled(
        compute=COMPUTE_SCALE[gpu], shared_capacity=shared_capacity_scale()
    )


def inference_X(name: str, limit: int | None = None) -> np.ndarray:
    """The dataset's inference samples (the 30 % split), optionally capped."""
    X = workload(name).split.test.X
    return X if limit is None else X[:limit]


def inference_pool(name: str, n_samples: int) -> np.ndarray:
    """A large inference-only pool for the scaling experiments.

    The paper's figure 9 partitions millions of samples over up to 128
    GPUs; the regular bench split (~1 800 rows) would hit the per-batch
    overhead floor after a few GPUs.  Synthesising more inference data is
    free (the generator is the dataset), capped at the dataset's paper
    size — small datasets (HOCK, gisette, phishing) stay small, which is
    exactly why they saturate in the paper.
    """
    spec = DATASETS[name]
    scale = min(1.0, n_samples / spec.n_samples)
    data = load_dataset(name, scale=scale, seed=BENCH_SEED + 1, attribute_cap=512)
    return data.X[: min(n_samples, data.n_samples)]


class Timing(NamedTuple):
    """Wall seconds over a benchmark's repeats."""

    median: float
    q1: float
    q3: float
    min: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def measure(fn, repeats: int, *, setup=None) -> Timing:
    """Time ``repeats`` calls of ``fn()``: median, quartiles and min.

    With ``setup``, each call is ``fn(setup())`` and only ``fn`` is timed.
    """
    times = []
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return Timing(float(median), float(q1), float(q3), min(times))


def write_result(name: str, text: str) -> Path:
    """Persist a benchmark's report under benchmarks/results/ and echo it."""
    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(text)
    return path


def write_bench_report(name: str, payload, *, scenario: str | None = None) -> Path:
    """Persist a machine-readable ``BENCH_<name>.json`` artifact.

    The schema-stable counterpart of :func:`write_result`: ``payload``
    is either a :class:`repro.obs.RunReport` (serialised via its
    versioned ``to_dict``) or a plain dict, wrapped in the shared
    :func:`repro.obs.benchdiff.bench_envelope` (run id, git sha,
    timestamp, scenario key) so any two runs of the same scenario are
    comparable with ``repro bench diff``.
    """
    from repro.obs.benchdiff import bench_envelope
    from repro.obs.exporters import jsonable
    from repro.obs.report import RunReport

    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"BENCH_{name}.json"
    is_report = isinstance(payload, RunReport)
    envelope = bench_envelope(
        name,
        payload.to_dict() if is_report else payload,
        kind="run_report" if is_report else "summary",
        scenario=scenario,
    )
    path.write_text(json.dumps(jsonable(envelope), indent=2) + "\n")
    return path


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Fixed-width table for result files."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title), ""]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append("")
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)

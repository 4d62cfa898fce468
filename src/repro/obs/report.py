"""The run-report schema.

A :class:`RunReport` is the stable, versioned artifact one inference run
produces: conversion-stage timings (the paper's section 7.4 breakdown),
per-batch strategy decisions with the selector's **predicted** time next
to the **simulated** time actually observed (the section 6 / Table 1
model-accuracy check, collected continuously instead of as a one-off
benchmark), per-batch execution breakdowns and traffic summaries, and a
metrics snapshot.

Everything serialises to plain dicts (``to_dict`` / ``from_dict`` are
exact inverses — tested), so ``BENCH_*.json`` files keep a stable schema
across PRs and the perf trajectory stays comparable.  Bump
:data:`SCHEMA_VERSION` on any breaking field change.

This module is deliberately free of repo-internal imports: records are
built from engine objects by duck typing (``from_stats`` /
``from_result``), so ``repro.core`` and ``repro.gpusim`` can depend on
``repro.obs`` without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "BatchRecord",
    "CandidateRecord",
    "ConversionRecord",
    "RunReport",
    "SelectorDecision",
    "simulated_terms",
]

#: Bump on breaking schema changes; ``RunReport.from_dict`` refuses
#: newer-versioned payloads.
SCHEMA_VERSION = 1

def _none_if_inf(value: float | None) -> float | None:
    """JSON has no Infinity; inapplicable predictions become null."""
    if value is None or value != value or value in (float("inf"), float("-inf")):
        return None
    return float(value)


@dataclass
class CandidateRecord:
    """One strategy the selector considered for a batch."""

    strategy: str
    predicted_time: float | None
    applicable: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateRecord":
        return cls(**d)


def simulated_terms(breakdown: dict) -> dict:
    """A simulated breakdown (``ExecutionBreakdown.to_dict``) in the
    model's terms.

    The simulator's traversal time is the roofline of its bandwidth time
    (global plus shared, stretched by imbalance) and its dependent-load
    chain; like the model, it is split between ``t_gmem`` and ``t_smem``
    in proportion to their bandwidth times.  ``t_chain`` is reported
    as is.
    """
    t_global, t_shared = breakdown["t_global"], breakdown["t_shared"]
    bandwidth = t_global + t_shared
    scale = breakdown["t_traversal"] / bandwidth if bandwidth > 0 else 0.0
    return {
        "t_smem": t_shared * scale,
        "t_gmem": t_global * scale,
        "t_block_reduce": breakdown["t_block_reduce"],
        "t_global_reduce": breakdown["t_global_reduce"],
        "t_launch": breakdown["t_launch"],
        "t_chain": breakdown["t_chain"],
    }


@dataclass
class SelectorDecision:
    """One per-batch selection: every candidate's prediction, the chosen
    strategy, and the simulated time it actually took.

    ``predicted_time`` is the chosen strategy's prediction, so
    ``predicted_time / simulated_time`` is the model's accuracy on
    exactly the configuration it bet on.  In a reported run,
    ``predicted_terms`` / ``simulated_terms`` split both times into the
    model's terms (:func:`simulated_terms`), so a residual names its
    term; they stay ``None`` otherwise.
    """

    batch_index: int
    batch_size: int
    chosen: str
    predicted_time: float | None = None
    simulated_time: float | None = None
    candidates: list[CandidateRecord] = field(default_factory=list)
    predicted_terms: dict | None = None
    simulated_terms: dict | None = None

    @property
    def prediction_ratio(self) -> float | None:
        """predicted / simulated (1.0 = perfect model); None if incomplete."""
        if not self.predicted_time or not self.simulated_time:
            return None
        return self.predicted_time / self.simulated_time

    def to_dict(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "batch_size": self.batch_size,
            "chosen": self.chosen,
            "predicted_time": _none_if_inf(self.predicted_time),
            "simulated_time": _none_if_inf(self.simulated_time),
            "candidates": [c.to_dict() for c in self.candidates],
            "predicted_terms": self.predicted_terms,
            "simulated_terms": self.simulated_terms,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SelectorDecision":
        d = dict(d)
        d["candidates"] = [CandidateRecord.from_dict(c) for c in d.get("candidates", [])]
        return cls(**d)


@dataclass
class ConversionRecord:
    """Wall-clock seconds of one online conversion (section 7.4 stages).

    ``node_encoding`` is the produced layout's node-record label
    (``w8/f32``, ``legacy-a1``, ...).
    """

    stages: dict = field(default_factory=dict)
    total: float = 0.0
    node_encoding: str | None = None

    @classmethod
    def from_stats(cls, stats) -> "ConversionRecord":
        """Adopt a ``ConversionStats`` (any object with ``t_*`` floats)."""
        stages = {
            name[2:]: float(getattr(stats, name))
            for name in vars(stats)
            if name.startswith("t_")
        }
        return cls(
            stages=stages,
            total=sum(stages.values()),
            node_encoding=getattr(stats, "node_encoding", None),
        )

    def to_dict(self) -> dict:
        return {
            "stages": dict(self.stages),
            "total": self.total,
            "node_encoding": self.node_encoding,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConversionRecord":
        return cls(
            stages=dict(d["stages"]),
            total=d["total"],
            node_encoding=d.get("node_encoding"),
        )


@dataclass
class BatchRecord:
    """One executed batch: launch geometry, time breakdown, traffic."""

    index: int
    strategy: str
    batch_size: int
    simulated_time: float
    n_blocks: int = 0
    threads_per_block: int = 0
    breakdown: dict = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)

    @classmethod
    def from_result(cls, index: int, result) -> "BatchRecord":
        """Adopt a ``StrategyResult``: both ``breakdown`` and ``counters``
        expose ``to_dict`` (duck-typed to avoid importing gpusim)."""
        breakdown = result.breakdown.to_dict()
        traffic = result.counters.to_dict()
        return cls(
            index=index,
            strategy=result.strategy,
            batch_size=int(result.batch_size),
            simulated_time=float(result.time),
            n_blocks=int(result.n_blocks),
            threads_per_block=int(result.threads_per_block),
            breakdown=breakdown,
            traffic=traffic,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BatchRecord":
        return cls(**d)


@dataclass
class RunReport:
    """The versioned artifact of one inference run."""

    engine: str = "tahoe"
    gpu: str = ""
    dataset: str = ""
    n_samples: int = 0
    batch_size: int | None = None
    total_time: float = 0.0
    conversions: list[ConversionRecord] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    decisions: list[SelectorDecision] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def throughput(self) -> float:
        if self.total_time <= 0:
            return float("inf")
        return self.n_samples / self.total_time

    def model_accounting(self) -> dict:
        """Prediction-vs-actual summary per strategy (section 6 check).

        For every decision with both a prediction and a simulated time,
        accumulates the mean absolute relative error
        ``|predicted - simulated| / simulated`` and the mean
        predicted/simulated ratio, grouped by chosen strategy plus an
        ``"overall"`` row.
        """
        groups: dict[str, list[tuple[float, float]]] = {}
        for d in self.decisions:
            if not d.predicted_time or not d.simulated_time:
                continue
            groups.setdefault(d.chosen, []).append(
                (d.predicted_time, d.simulated_time)
            )
        out: dict[str, dict] = {}
        everything: list[tuple[float, float]] = []
        for name, pairs in sorted(groups.items()):
            everything.extend(pairs)
            out[name] = _accuracy_row(pairs)
        if everything:
            out["overall"] = _accuracy_row(everything)
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "engine": self.engine,
            "gpu": self.gpu,
            "dataset": self.dataset,
            "n_samples": self.n_samples,
            "batch_size": self.batch_size,
            "total_time": self.total_time,
            "conversions": [c.to_dict() for c in self.conversions],
            "batches": [b.to_dict() for b in self.batches],
            "decisions": [d.to_dict() for d in self.decisions],
            "metrics": self.metrics,
            "calibration": self.calibration,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        version = d.get("schema_version", 0)
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"report schema v{version} is newer than supported v{SCHEMA_VERSION}"
            )
        return cls(
            engine=d.get("engine", "tahoe"),
            gpu=d.get("gpu", ""),
            dataset=d.get("dataset", ""),
            n_samples=d.get("n_samples", 0),
            batch_size=d.get("batch_size"),
            total_time=d.get("total_time", 0.0),
            conversions=[ConversionRecord.from_dict(c) for c in d.get("conversions", [])],
            batches=[BatchRecord.from_dict(b) for b in d.get("batches", [])],
            decisions=[SelectorDecision.from_dict(s) for s in d.get("decisions", [])],
            metrics=d.get("metrics", {}),
            calibration=d.get("calibration", {}),
            meta=d.get("meta", {}),
            schema_version=version,
        )


def _accuracy_row(pairs: list[tuple[float, float]]) -> dict:
    errors = [abs(p - s) / s for p, s in pairs]
    ratios = [p / s for p, s in pairs]
    n = len(pairs)
    return {
        "n": n,
        "mean_abs_rel_error": sum(errors) / n,
        "mean_ratio": sum(ratios) / n,
        "mean_predicted": sum(p for p, _ in pairs) / n,
        "mean_simulated": sum(s for _, s in pairs) / n,
    }

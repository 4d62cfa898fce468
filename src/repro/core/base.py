"""The unified engine surface: one protocol, one result shape, one lifecycle.

Every engine in :mod:`repro.core` — :class:`~repro.core.engine.TahoeEngine`,
:class:`~repro.core.fil.FILEngine` and
:class:`~repro.core.native.NativeEngine` — conforms to the
:class:`Engine` protocol:

* construction is ``Engine(forest, spec, *, config=..., hardware=...,
  recorder=...)`` — everything after ``(forest, spec)`` is
  keyword-only,
* inference is ``predict(X, *, batch_size=None, report=False)`` and
  returns an :class:`EngineResult` (or a subclass),
* ``update_forest(forest)`` returns the :class:`ConversionStats` of the
  reconversion,
* an empty inference batch raises ``ValueError("empty inference
  batch")`` instead of failing mid-batch.

The three engines share one lifecycle, :class:`LayoutEngine`
(Algorithm 1): convert the forest on load, ship the layout to the
execution target, then run inference batch by batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.config import TahoeConfig
from repro.obs.recorder import RunRecorder
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.formats.layout import ForestLayout
    from repro.gpusim.specs import GPUSpec
    from repro.obs.report import RunReport
    from repro.perfmodel.notation import HardwareParams
    from repro.strategies import StrategyResult
    from repro.trees.forest import Forest

__all__ = [
    "ConversionStats",
    "Engine",
    "EngineResult",
    "LayoutEngine",
    "TIME_DOMAIN_SIMULATED",
    "TIME_DOMAIN_WALL",
    "check_batch",
    "prediction_buffer",
]


@dataclass
class ConversionStats:
    """Wall-clock seconds of the online CPU part (section 7.4's five stages).

    ``source`` records where the layout came from: ``"pipeline"`` (the
    five stages ran) or ``"artifact"`` (adopted pre-converted through
    :meth:`LayoutEngine.from_layout` — from a packed ``.tahoe`` file, or
    from the replica of a serving pool that converted it — so every
    stage time is exactly zero).  ``node_encoding`` is the
    layout's node-record label (``w8/f32``, ``legacy-a1``, ...), filled
    in by the engine adopting the layout.
    """

    t_fetch_probabilities: float = 0.0
    t_node_rearrangement: float = 0.0
    t_similarity_detection: float = 0.0
    t_format_conversion: float = 0.0
    t_copy_to_gpu: float = 0.0
    source: str = "pipeline"
    node_encoding: str | None = None

    @property
    def total(self) -> float:
        return (
            self.t_fetch_probabilities
            + self.t_node_rearrangement
            + self.t_similarity_detection
            + self.t_format_conversion
            + self.t_copy_to_gpu
        )


#: The two clocks an engine's ``total_time`` can be denominated in.
TIME_DOMAIN_SIMULATED = "simulated"
TIME_DOMAIN_WALL = "wall"


@dataclass
class EngineResult:
    """Outcome of one ``Engine.predict`` call.

    Attributes:
        predictions: final per-sample predictions.
        total_time: seconds over all batches, in ``time_domain`` units.
        batches: per-batch strategy results.
        strategies_used: strategy name per batch.
        report: the run's :class:`~repro.obs.report.RunReport` (only when
            ``predict(..., report=True)``).
        time_domain: which clock ``total_time`` (and therefore
            ``throughput``) is measured on — ``"simulated"`` for the
            GPU-simulator engines, ``"wall"`` for the native backend.
            Throughput numbers from different domains must never be
            compared (``repro bench diff`` refuses to).
    """

    predictions: np.ndarray
    total_time: float
    batches: "list[StrategyResult]" = field(default_factory=list)
    strategies_used: list[str] = field(default_factory=list)
    report: "RunReport | None" = None
    time_domain: str = TIME_DOMAIN_SIMULATED

    @property
    def throughput(self) -> float:
        """Samples per second on this result's clock.

        For ``time_domain == "wall"`` (the native backend) this is real
        wall-clock samples/sec; for ``"simulated"`` it is samples per
        simulated GPU second.
        """
        n = self.predictions.shape[0]
        return n / self.total_time if self.total_time > 0 else float("inf")


@runtime_checkable
class Engine(Protocol):
    """What every inference engine exposes (structural typing)."""

    def predict(
        self, X: np.ndarray, *, batch_size: int | None = None, report: bool = False
    ) -> EngineResult: ...

    def update_forest(self, forest: "Forest") -> ConversionStats: ...

    def build_report(self, **meta) -> "RunReport": ...


def check_batch(X: np.ndarray, *, n_attributes: int | None = None) -> np.ndarray:
    """Coerce an inference batch to float32 and reject empty input.

    With ``n_attributes`` the batch must also be 2-D with exactly that
    many columns — the check engines whose kernels gather unchecked rely
    on.
    """
    X = np.asarray(X, dtype=np.float32)
    if X.shape[0] == 0:
        raise ValueError("empty inference batch")
    if n_attributes is not None and (X.ndim != 2 or X.shape[1] != n_attributes):
        got = f"{X.shape[1]} columns" if X.ndim == 2 else f"shape {X.shape}"
        raise ValueError(
            f"inference batch must be 2-D with {n_attributes} columns "
            f"(the forest's n_attributes), got {got}"
        )
    return X


def prediction_buffer(n: int, n_classes: int) -> np.ndarray:
    """Zeroed float64 predictions: ``(n,)``, or ``(n, n_classes)`` when
    the forest is multiclass."""
    return np.zeros((n, n_classes) if n_classes > 1 else n, dtype=np.float64)


class LayoutEngine:
    """The lifecycle every layout-executing engine shares (Algorithm 1).

    On load the forest is converted (stages 1-4), the layout is shipped
    to the execution target (stage 5), and the finished layout is
    adopted; :meth:`from_layout` adopts a pre-converted one instead.
    Inference then runs batch by batch.  A subclass supplies five things:

    * :meth:`conversion_key` — the knobs its conversion depends on (a
      packed artifact records them);
    * :meth:`_convert_stages` and :meth:`_ship` — the stages that build
      its layout (1-4, then 5);
    * :meth:`_install` — what adoption installs beside the layout;
    * :meth:`_run_batch` and :meth:`_explain_batch` — one batch's run;
    * ``report_name`` and ``report_meta`` — its name and extra metadata
      in a :class:`~repro.obs.report.RunReport`.

    The defaults are the adaptive pipeline's key and stages and the
    simulated GPU image.  :meth:`_measure_hardware` supplies the §6
    hardware parameters when the caller passes none (none at all by
    default); Tahoe and Native each define it in their own module, so a
    profiler that wraps a module's ``measure_hardware_parameters`` sees
    that engine's call.
    """

    report_name = ""
    report_meta: dict = {}
    time_domain = TIME_DOMAIN_SIMULATED

    def __init__(
        self,
        forest: "Forest",
        spec: "GPUSpec",
        *,
        config: TahoeConfig | None = None,
        hardware: "HardwareParams | None" = None,
        recorder: RunRecorder | None = None,
    ) -> None:
        self._init_common(spec, config, hardware, recorder)
        self._convert(forest)

    def _init_common(self, spec, config, hardware, recorder) -> None:
        self.spec = spec
        self.config = config if config is not None else TahoeConfig()
        obs = self.config.obs
        self.recorder = recorder if recorder is not None else RunRecorder(
            tracing=obs.tracing, metrics=obs.metrics, max_spans=obs.max_spans
        )
        self.hardware = hardware or self._measure_hardware(spec)
        self.layout: ForestLayout | None = None
        self.conversion_stats = ConversionStats()

    @classmethod
    def from_layout(
        cls,
        layout: "ForestLayout",
        spec: "GPUSpec",
        *,
        config: TahoeConfig | None = None,
        hardware: "HardwareParams | None" = None,
        recorder: RunRecorder | None = None,
    ):
        """Build an engine around an already-converted layout.

        The packed-artifact fast path (:mod:`repro.modelstore.artifact`),
        and how a serving pool's other replicas share the layout its
        first replica converted: no conversion stage runs, so
        ``conversion_stats`` reports zero time for every stage with
        ``source="artifact"``, and the recorder counts no conversion.
        """
        engine = cls.__new__(cls)
        engine._init_common(spec, config, hardware, recorder)
        engine._adopt_layout(layout, ConversionStats(source="artifact"))
        return engine

    # ------------------------------------------------------------------
    # What a subclass supplies
    # ------------------------------------------------------------------
    @staticmethod
    def _measure_hardware(spec: "GPUSpec") -> "HardwareParams | None":
        return None

    @classmethod
    def conversion_key(cls, config: TahoeConfig | None) -> tuple:
        """The knobs this engine's conversion depends on under ``config``."""
        return (config if config is not None else TahoeConfig()).conversion_key()

    def _convert_stages(self, forest: "Forest") -> "tuple[ForestLayout, ConversionStats]":
        """Stages 1-4: the adaptive pipeline."""
        from repro.core.engine import convert_forest

        return convert_forest(forest, self.config)

    def _ship(self, layout: "ForestLayout") -> None:
        """Stage 5: materialise the simulated GPU image of ``layout``."""
        from repro.gpusim.trace import flatten_layout

        flatten_layout(layout)

    def _install(self, layout: "ForestLayout") -> None:
        """Install what executing ``layout`` needs beyond the layout itself."""

    def _run_batch(self, X, start, stop, index, collect_level_stats, report):
        raise NotImplementedError

    def _explain_batch(self, X, start, stop, index):
        raise NotImplementedError

    def _after_predict(self, X: np.ndarray) -> None:
        """Runs once per ``predict`` call, after its last batch."""

    # ------------------------------------------------------------------
    # Online part: conversion and adoption (Algorithm 1, lines 5-7)
    # ------------------------------------------------------------------
    def _adopt_layout(self, layout: "ForestLayout", stats: ConversionStats) -> None:
        """Install a finished layout and keep its conversion stats."""
        self.layout = layout
        self.forest = layout.forest
        stats.node_encoding = layout.record.encoding_label
        self._install(layout)
        self.conversion_stats = stats

    def _convert(self, forest: "Forest") -> None:
        with self.recorder.activate(), span(
            "engine.convert",
            category="conversion",
            trees=forest.n_trees,
            nodes=forest.n_nodes,
        ):
            layout, stats = self._convert_stages(forest)
            t4 = time.perf_counter()
            # Stage 5: ship the converted forest to the execution target.
            with span("copy_to_gpu", category="conversion", bytes=layout.total_bytes):
                self._ship(layout)
            stats.t_copy_to_gpu = time.perf_counter() - t4
        self._adopt_layout(layout, stats)
        self.recorder.record_conversion(stats)

    def update_forest(self, forest: "Forest") -> ConversionStats:
        """Incremental learning hook: reconvert for an updated forest."""
        self._convert(forest)
        return self.conversion_stats

    # ------------------------------------------------------------------
    # Inference (Algorithm 1, lines 8-16)
    # ------------------------------------------------------------------
    def predict(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        collect_level_stats: bool = False,
        report: bool = False,
    ) -> EngineResult:
        """Run inference over ``X`` batch by batch.

        Args:
            X: sample matrix (non-empty, ``forest.n_attributes`` columns;
                anything else raises ``ValueError``).
            batch_size: samples per batch (whole input when omitted) —
                the paper's high-parallelism regime uses 100K, the
                low-parallelism one 100.
            collect_level_stats: gather per-level coalescing statistics
                on each batch (figure 2a analysis; simulated engines only).
            report: attach this run's :class:`RunReport` to the result
                (conversions, per-batch decisions and times, traffic
                metrics).
        """
        X = check_batch(X, n_attributes=self.forest.n_attributes)
        n = X.shape[0]
        if batch_size is None or batch_size >= n:
            batch_size = n
        predictions = prediction_buffer(n, self.forest.n_classes)
        batches: list[StrategyResult] = []
        total_time = 0.0
        with self.recorder.activate(), span(
            "engine.predict", category="engine", samples=n, batch_size=batch_size
        ):
            for index, start in enumerate(range(0, n, batch_size)):
                stop = min(start + batch_size, n)
                result = self._run_batch(X, start, stop, index, collect_level_stats, report)
                predictions[start:stop] = result.predictions
                batches.append(result)
                total_time += result.time
        self._after_predict(X)
        return EngineResult(
            predictions=predictions,
            total_time=total_time,
            batches=batches,
            strategies_used=[b.strategy for b in batches],
            report=self.build_report(
                n_samples=n, batch_size=batch_size, total_time=total_time
            )
            if report
            else None,
            time_domain=self.time_domain,
        )

    def explain(
        self,
        X: np.ndarray,
        *,
        batch_size: int | None = None,
        report: bool = False,
    ):
        """Exact SHAP attributions for ``X``, batch by batch.

        Returns an :class:`~repro.explain.ExplainResult` whose
        attributions are in raw-margin space (``base_values +
        attributions.sum(axis=1)`` reconstructs the pre-link margins
        exactly).
        """
        from repro.explain import ExplainResult, squeeze_single_class

        X = check_batch(X, n_attributes=self.forest.n_attributes)
        n = X.shape[0]
        if batch_size is None or batch_size >= n:
            batch_size = n
        K = self.forest.n_classes
        phi = np.zeros((n, self.forest.n_attributes, K), dtype=np.float64)
        margins = np.zeros((n, K), dtype=np.float64)
        base = np.zeros(K, dtype=np.float64)
        batches: list[StrategyResult] = []
        total_time = 0.0
        with self.recorder.activate(), span(
            "engine.explain", category="engine", samples=n, batch_size=batch_size
        ):
            for index, start in enumerate(range(0, n, batch_size)):
                stop = min(start + batch_size, n)
                result = self._explain_batch(X, start, stop, index)
                phi[start:stop] = result.attributions
                margins[start:stop] = result.predictions
                base = result.base_values
                batches.append(result)
                total_time += result.time
        phi, base, margins = squeeze_single_class(phi, base, margins)
        return ExplainResult(
            attributions=phi,
            base_values=base,
            predictions=margins,
            total_time=total_time,
            batches=batches,
            strategies_used=[b.strategy for b in batches],
            report=self.build_report(
                n_samples=n, batch_size=batch_size, total_time=total_time
            )
            if report
            else None,
            time_domain=self.time_domain,
        )

    def build_report(
        self,
        n_samples: int = 0,
        batch_size: int | None = None,
        total_time: float = 0.0,
        **meta,
    ) -> "RunReport":
        """Assemble the engine's telemetry into a :class:`RunReport`."""
        for key, value in self.report_meta.items():
            meta.setdefault(key, value)
        return self.recorder.build_report(
            engine=self.report_name,
            gpu=self.spec.name,
            n_samples=n_samples,
            batch_size=batch_size,
            total_time=total_time,
            **meta,
        )

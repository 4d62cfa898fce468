"""The :class:`RunRecorder` — the glue the engines drive.

One recorder accompanies one engine, or one server and its engine
replicas.  It owns a tracer and a metrics registry, accumulates
conversion / selection / batch records as the engine works, and
assembles the :class:`~repro.obs.report.RunReport` artifact on demand.
With both tracing and metrics disabled it degrades to a handful of
cheap appends, so engines can keep it wired in unconditionally.  Its
memory does not grow with the work it records: batch records and
selector decisions are windows of the most recent
:data:`MAX_REPORT_RECORDS`, while its counters, histograms and
calibration tracker cover everything.
"""

from __future__ import annotations

from collections import deque

from repro.obs.drift import CalibrationTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    BatchRecord,
    CandidateRecord,
    ConversionRecord,
    RunReport,
    SelectorDecision,
    simulated_terms,
)
from repro.obs.trace import Tracer, use_tracer

__all__ = ["MAX_REPORT_RECORDS", "MAX_REPORT_TRACES", "RunRecorder"]

#: Cap on per-request traces a serving report carries (the responses
#: themselves always carry their own trace regardless).
MAX_REPORT_TRACES = 2000
#: Batch records and selector decisions a recorder keeps; a report
#: notes in ``meta`` how many older ones it dropped.
MAX_REPORT_RECORDS = 1000


class RunRecorder:
    """Collects one run's telemetry and builds its report.

    Args:
        tracing: record spans (off by default: spans cost a clock read
            and an allocation each; everything else stays on).
        metrics: fold per-batch traffic into the metrics registry.
        max_spans: tracer capacity backstop.
    """

    def __init__(
        self,
        tracing: bool = False,
        metrics: bool = True,
        max_spans: int = 100_000,
    ) -> None:
        self.tracer = Tracer(enabled=tracing, max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.metrics_enabled = metrics
        self.calibration = CalibrationTracker()
        self.conversions: list[ConversionRecord] = []
        self.decisions: deque[SelectorDecision] = deque(maxlen=MAX_REPORT_RECORDS)
        self.batches: deque[BatchRecord] = deque(maxlen=MAX_REPORT_RECORDS)
        self._n_decisions = self._n_batches = 0

    def activate(self):
        """Install this recorder's tracer as the current one (ctx mgr)."""
        return use_tracer(self.tracer)

    # ------------------------------------------------------------------
    # Recording hooks (duck-typed against core/gpusim objects)
    # ------------------------------------------------------------------
    def record_conversion(self, stats) -> ConversionRecord:
        """Adopt one ``ConversionStats`` (section 7.4 stage timings)."""
        record = ConversionRecord.from_stats(stats)
        self.conversions.append(record)
        self.metrics.counter(
            "conversions_total", help="online format conversions performed"
        ).inc()
        self.metrics.gauge(
            "conversion_last_seconds", help="wall-clock cost of the last conversion"
        ).set(record.total)
        return record

    def record_decision(
        self, batch_index: int, batch_size: int, ranked, chosen, terms: bool = False
    ):
        """Record one selector decision (Algorithm 1 lines 8–15).

        Args:
            ranked: the full ``rank_strategies`` output (candidates best
                first, inapplicable ones with infinite prediction).
            chosen: the ``StrategyChoice`` actually executed.
            terms: also keep the chosen prediction's per-term split,
                which :meth:`record_batch` pairs with the simulated one
                (engines pass it for reported runs only).
        """
        candidates = [CandidateRecord(**c.to_record()) for c in ranked]
        chosen_t = chosen.predicted_time
        applicable = chosen_t != float("inf")
        decision = SelectorDecision(
            batch_index=batch_index,
            batch_size=batch_size,
            chosen=chosen.name,
            predicted_time=float(chosen_t) if applicable else None,
            candidates=candidates,
            predicted_terms=chosen.prediction.terms() if terms and applicable else None,
        )
        self.decisions.append(decision)
        self._n_decisions += 1
        self.metrics.counter(f"selector.chosen.{chosen.name}").inc()
        return decision

    def record_batch(self, index: int, result, decision=None) -> BatchRecord:
        """Adopt one executed ``StrategyResult``; closes its decision."""
        record = BatchRecord.from_result(index, result)
        self.batches.append(record)
        self._n_batches += 1
        if decision is not None:
            decision.simulated_time = record.simulated_time
            if decision.predicted_terms is not None:
                decision.simulated_terms = simulated_terms(record.breakdown)
            ratio = decision.prediction_ratio
            if ratio is not None:
                self.metrics.histogram(
                    "selector.prediction_ratio",
                    help="predicted / simulated batch time (1.0 = perfect model)",
                ).observe(ratio)
            self.calibration.record(decision)
            margin = self.calibration.decision_margin(decision)
            if (
                margin is not None
                and decision.predicted_time is not None
                and abs(decision.predicted_time - record.simulated_time) > margin
            ):
                self.metrics.counter(
                    "selector.ranking_at_risk_total",
                    help="decisions whose residual exceeded the selection margin",
                ).inc()
        self.metrics.counter("batches_total").inc()
        self.metrics.counter("samples_total").inc(record.batch_size)
        self.metrics.histogram("batch_time_seconds").observe(record.simulated_time)
        if self.metrics_enabled:
            self.metrics.record_traffic(result.counters)
        return record

    # ------------------------------------------------------------------
    # Artifact assembly
    # ------------------------------------------------------------------
    def build_report(
        self,
        engine: str = "tahoe",
        gpu: str = "",
        dataset: str = "",
        n_samples: int = 0,
        batch_size: int | None = None,
        total_time: float = 0.0,
        **meta,
    ) -> RunReport:
        meta = dict(meta)
        if self.tracer.enabled:
            meta.setdefault("n_spans", len(self.tracer.spans))
            meta.setdefault("spans_dropped", self.tracer.dropped)
        for name, kept, seen in (
            ("batches", self.batches, self._n_batches),
            ("decisions", self.decisions, self._n_decisions),
        ):
            if seen > len(kept):
                meta.setdefault(f"{name}_dropped", seen - len(kept))
        return RunReport(
            engine=engine,
            gpu=gpu,
            dataset=dataset,
            n_samples=n_samples,
            batch_size=batch_size,
            total_time=total_time,
            conversions=list(self.conversions),
            batches=list(self.batches),
            decisions=list(self.decisions),
            metrics=self.metrics.snapshot(),
            calibration=self.calibration.summary(),
            meta=meta,
        )

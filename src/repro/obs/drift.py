"""Calibration drift: is the §6 performance model still trustworthy?

The selector bets every batch on the analytic models' predicted times;
the simulator then reports what the batch actually took.  PR 1 started
recording those pairs per decision — this module turns them into a
continuously evaluated health signal.  A :class:`CalibrationTracker`
accumulates the predicted-vs-simulated residual of every closed
:class:`~repro.obs.report.SelectorDecision`, per chosen strategy, in
fixed memory (streaming histograms, not sample lists).

The metric that matters is not absolute error but **ranking risk**: the
selector only needs the model to order strategies correctly.  A decision
is *at risk* when its residual ``|predicted - simulated|`` exceeds the
prediction margin to the runner-up strategy — had the error landed the
other way, the ranking could have flipped.  When the at-risk fraction
exceeds ``ranking_risk_threshold`` over enough decisions, the tracker
flags drift (and warns once): time to re-run the §6 microbenchmarks or
recalibrate the hardware parameters.

In a reported run every decision also carries its per-term split
(predicted and simulated), and the summary gives the mean
predicted/simulated ratio of each term per strategy, so a residual
names the term it comes from.
"""

from __future__ import annotations

import warnings

from repro.obs.streaming import StreamingHistogram

__all__ = ["CalibrationDriftWarning", "CalibrationTracker"]


class CalibrationDriftWarning(UserWarning):
    """The performance model's ranking error exceeded its threshold."""


class _StrategyResiduals:
    """Fixed-memory residual accounting for one strategy."""

    __slots__ = (
        "n",
        "sum_ratio",
        "sum_abs_rel_error",
        "abs_rel_error",
        "at_risk",
        "with_margin",
        "term_ratios",
    )

    def __init__(self) -> None:
        self.n = 0
        self.sum_ratio = 0.0
        self.sum_abs_rel_error = 0.0
        # Relative errors live in roughly [1e-4, 10]; keep the sketch tight.
        self.abs_rel_error = StreamingHistogram(growth=1.04, lo=1e-6, hi=1e3)
        self.at_risk = 0
        self.with_margin = 0
        # term -> [sum of predicted/simulated, count]; reported runs only.
        self.term_ratios: dict[str, list] = {}

    def record_terms(self, predicted: dict, simulated: dict) -> None:
        """Fold one decision's per-term ratios in (terms the simulator
        spent no time on are skipped)."""
        for term, value in predicted.items():
            actual = simulated.get(term)
            if actual:
                acc = self.term_ratios.setdefault(term, [0.0, 0])
                acc[0] += value / actual
                acc[1] += 1

    def record(self, predicted: float, simulated: float, margin: float | None) -> None:
        self.n += 1
        self.sum_ratio += predicted / simulated
        error = abs(predicted - simulated)
        self.sum_abs_rel_error += error / simulated
        self.abs_rel_error.observe(error / simulated)
        if margin is not None:
            self.with_margin += 1
            if error > margin:
                self.at_risk += 1

    def merge(self, other: _StrategyResiduals) -> None:
        self.n += other.n
        self.sum_ratio += other.sum_ratio
        self.sum_abs_rel_error += other.sum_abs_rel_error
        self.abs_rel_error.merge(other.abs_rel_error)
        self.at_risk += other.at_risk
        self.with_margin += other.with_margin
        for term, (total, count) in other.term_ratios.items():
            acc = self.term_ratios.setdefault(term, [0.0, 0])
            acc[0] += total
            acc[1] += count

    def summary(self) -> dict:
        out = {
            "n": self.n,
            "mean_ratio": self.sum_ratio / self.n if self.n else 0.0,
            "mean_abs_rel_error": self.sum_abs_rel_error / self.n if self.n else 0.0,
            "p50_abs_rel_error": self.abs_rel_error.quantile(0.5),
            "p95_abs_rel_error": self.abs_rel_error.quantile(0.95),
            "ranking_at_risk": self.at_risk,
            "decisions_with_margin": self.with_margin,
        }
        if self.term_ratios:
            out["mean_term_ratio"] = {
                term: total / count for term, (total, count) in self.term_ratios.items()
            }
        return out


class CalibrationTracker:
    """Streaming predicted-vs-simulated residuals per selector decision.

    Args:
        ranking_risk_threshold: drift flags when the fraction of at-risk
            decisions exceeds this (over ``min_decisions`` decisions).
        min_decisions: evaluation floor; a couple of noisy batches are
            not drift.
        warn: emit one :class:`CalibrationDriftWarning` on first flag.
    """

    def __init__(
        self,
        ranking_risk_threshold: float = 0.25,
        min_decisions: int = 20,
        warn: bool = True,
    ) -> None:
        self.ranking_risk_threshold = float(ranking_risk_threshold)
        self.min_decisions = int(min_decisions)
        self.warn = warn
        self._per_strategy: dict[str, _StrategyResiduals] = {}
        self._warned = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @staticmethod
    def decision_margin(decision) -> float | None:
        """Predicted-time gap from the chosen strategy to its nearest rival.

        ``None`` when no second applicable candidate exists (margin is
        effectively infinite — the ranking cannot flip).  The gap is
        absolute: when the chosen candidate was *not* the predicted
        fastest (a ``strategy_override``, or a hardware-target ranking
        where the executing backend runs regardless of rank), the
        distance to the nearest rival is still the residual size at
        which the predicted ordering becomes unreliable.
        """
        nearest = None
        predicted_time = decision.predicted_time
        if predicted_time is None:
            return None
        for candidate in getattr(decision, "candidates", []):
            predicted = getattr(candidate, "predicted_time", None)
            if predicted is None:
                continue
            if getattr(candidate, "strategy", None) == decision.chosen:
                continue
            gap = abs(predicted - predicted_time)
            if nearest is None or gap < nearest:
                nearest = gap
        return nearest

    def record(self, decision) -> None:
        """Adopt one closed decision (both times present; no-op otherwise)."""
        predicted = getattr(decision, "predicted_time", None)
        simulated = getattr(decision, "simulated_time", None)
        if not predicted or not simulated or simulated <= 0:
            return
        acc = self._per_strategy.get(decision.chosen)
        if acc is None:
            acc = self._per_strategy[decision.chosen] = _StrategyResiduals()
        acc.record(predicted, simulated, self.decision_margin(decision))
        predicted_terms = getattr(decision, "predicted_terms", None)
        simulated_terms = getattr(decision, "simulated_terms", None)
        if predicted_terms and simulated_terms:
            acc.record_terms(predicted_terms, simulated_terms)
        if self.warn and not self._warned and self.drifted:
            self._warned = True
            warnings.warn(
                f"performance-model ranking error exceeds threshold: "
                f"{self.at_risk_fraction:.1%} of {self.n_decisions} decisions "
                f"had residuals larger than their selection margin "
                f"(threshold {self.ranking_risk_threshold:.1%}) — "
                f"re-run the microbenchmark calibration",
                CalibrationDriftWarning,
                stacklevel=3,
            )

    def merge(self, other: CalibrationTracker) -> CalibrationTracker:
        """Fold another tracker in (engine-pool replica fan-in)."""
        for name, acc in other._per_strategy.items():
            mine = self._per_strategy.get(name)
            if mine is None:
                mine = self._per_strategy[name] = _StrategyResiduals()
            mine.merge(acc)
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def n_decisions(self) -> int:
        return sum(acc.n for acc in self._per_strategy.values())

    @property
    def at_risk_fraction(self) -> float:
        with_margin = sum(acc.with_margin for acc in self._per_strategy.values())
        if not with_margin:
            return 0.0
        return sum(acc.at_risk for acc in self._per_strategy.values()) / with_margin

    @property
    def drifted(self) -> bool:
        """Ranking error above threshold over enough decisions."""
        return (
            self.n_decisions >= self.min_decisions
            and self.at_risk_fraction > self.ranking_risk_threshold
        )

    def summary(self) -> dict:
        """JSON-ready drift section for :class:`RunReport`."""
        return {
            "n_decisions": self.n_decisions,
            "ranking_at_risk_fraction": self.at_risk_fraction,
            "ranking_risk_threshold": self.ranking_risk_threshold,
            "drifted": self.drifted,
            "per_strategy": {
                name: acc.summary()
                for name, acc in sorted(self._per_strategy.items())
            },
        }

"""Rolling-window SLO evaluation for the serving tier.

An :class:`SLOMonitor` watches the response stream and evaluates
latency/error-rate objectives over a sliding window of simulated time.
When an objective flips from met to violated it emits a structured
``slo.breach`` event (and ``slo.recovered`` on the way back).  The
events land in the serving summary and the run report, so "p95 over
budget for the current window" is machine-readable there.

Objectives are declared on :class:`SLOConfig`; any subset may be set:

* ``latency_p95`` / ``latency_p99`` — end-to-end (arrival→completion)
  latency quantile budgets, in simulated seconds.
* ``queue_wait_p95`` — queueing-delay budget; breaches earlier than the
  end-to-end budget under overload, making it the leading indicator.
* ``error_rate`` — max fraction of failed requests (rejections and
  deadline misses) in the window.

Evaluation is O(window) and runs on a cadence (``eval_interval``), not
per request, so the monitor adds a bounded, amortised cost to the
response path.  Windows with fewer than ``min_requests`` observations
are skipped — a single slow request in an idle second is not a breach.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = ["SLOConfig", "SLOMonitor"]


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objectives and their evaluation window.

    Attributes:
        window: rolling-window length, simulated seconds.
        eval_interval: evaluation cadence, simulated seconds; ``None``
            derives ``window / 4``.
        min_requests: minimum responses in the window for an evaluation
            to count (sparse windows are statistically meaningless).
        latency_p95 / latency_p99: end-to-end latency budgets (seconds).
        queue_wait_p95: queue-wait budget (seconds).
        error_rate: max failed fraction (rejections + deadline misses).
    """

    window: float = 0.25
    eval_interval: float | None = None
    min_requests: int = 20
    latency_p95: float | None = None
    latency_p99: float | None = None
    queue_wait_p95: float | None = None
    error_rate: float | None = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.eval_interval is not None and self.eval_interval <= 0:
            raise ValueError("eval_interval must be positive")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")

    def objectives(self) -> dict[str, float]:
        """The configured objectives as ``{name: threshold}``."""
        out = {}
        for name in ("latency_p95", "latency_p99", "queue_wait_p95", "error_rate"):
            value = getattr(self, name)
            if value is not None:
                out[name] = float(value)
        return out


def _window_quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a small window (exact)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class SLOMonitor:
    """Evaluates :class:`SLOConfig` objectives over the response stream.

    Args:
        config: objectives and window.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry` to
            count breaches/recoveries into (``serving.slo.*``).

    Attributes:
        events: structured ``slo.breach`` / ``slo.recovered`` events in
            emission order (JSON-ready dicts).
    """

    def __init__(self, config: SLOConfig, metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self.events: list[dict] = []
        self._window: deque = deque()  # (time, latency, queue_wait, ok)
        self._in_breach: dict[str, bool] = dict.fromkeys(config.objectives(), False)
        self._eval_interval = (
            config.eval_interval
            if config.eval_interval is not None
            else config.window / 4.0
        )
        self._next_eval = 0.0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        *,
        now: float,
        latency: float = 0.0,
        queue_wait: float = 0.0,
        ok: bool = True,
    ) -> None:
        """Record one response and evaluate if the cadence is due.

        Args:
            now: simulated completion/rejection time.
            latency: arrival→completion seconds (successes).
            queue_wait: arrival→dispatch seconds (successes).
            ok: False for rejections and deadline misses.
        """
        self._window.append((now, latency, queue_wait, ok))
        if now >= self._next_eval:
            self.evaluate(now)
            self._next_eval = now + self._eval_interval

    def _trim(self, now: float) -> None:
        horizon = now - self.config.window
        window = self._window
        while window and window[0][0] < horizon:
            window.popleft()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def window_stats(self, now: float) -> dict:
        """Observed objective values over the current window."""
        self._trim(now)
        rows = list(self._window)
        n = len(rows)
        ok_latencies = [lat for _, lat, _, ok in rows if ok]
        ok_waits = [wait for _, _, wait, ok in rows if ok]
        failed = sum(1 for row in rows if not row[3])
        return {
            "requests": n,
            "latency_p95": _window_quantile(ok_latencies, 0.95),
            "latency_p99": _window_quantile(ok_latencies, 0.99),
            "queue_wait_p95": _window_quantile(ok_waits, 0.95),
            "error_rate": (failed / n) if n else 0.0,
        }

    def evaluate(self, now: float) -> list[dict]:
        """Check every objective against the current window.

        Emits one ``slo.breach`` event per objective on the met→violated
        transition and one ``slo.recovered`` on the way back (no
        re-emission while a breach persists).  Returns the events this
        evaluation emitted.
        """
        stats = self.window_stats(now)
        if stats["requests"] < self.config.min_requests:
            return []
        emitted: list[dict] = []
        for objective, threshold in self.config.objectives().items():
            observed = stats[objective]
            breached = observed > threshold
            if breached == self._in_breach[objective]:
                continue
            self._in_breach[objective] = breached
            event = {
                "event": "slo.breach" if breached else "slo.recovered",
                "objective": objective,
                "observed": observed,
                "threshold": threshold,
                "time": now,
                "window_s": self.config.window,
                "window_requests": stats["requests"],
            }
            self.events.append(event)
            emitted.append(event)
            if self.metrics is not None:
                kind = "breaches" if breached else "recoveries"
                self.metrics.counter(
                    f"serving.slo.{kind}_total",
                    help=f"slo objective {kind} (state transitions)",
                ).inc()
        return emitted

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def breaches(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "slo.breach"]

    def summary(self) -> dict:
        """JSON-ready view for serving summaries and run reports."""
        return {
            "objectives": self.config.objectives(),
            "window_s": self.config.window,
            "breaches": len(self.breaches),
            "in_breach": sorted(
                name for name, state in self._in_breach.items() if state
            ),
            "events": list(self.events),
        }

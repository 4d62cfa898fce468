"""Exporters: JSON run reports, Prometheus text, Chrome trace JSON.

Three output formats for the three consumers the repo has:

* **JSON run reports** — the stable ``BENCH_*.json`` / ``--report-json``
  artifact; ``load_report_json`` inverts ``write_report_json`` exactly.
* **Prometheus exposition text** — so a scraping stack can ingest the
  registry without a client library; names are sanitised to
  ``[a-zA-Z0-9_]``, ``# HELP`` strings are escaped per the exposition
  spec, and histograms emit spec-compliant ``_bucket{le="..."}`` /
  ``_sum`` / ``_count`` series from their streaming bucket counts.
* **Chrome ``trace_event`` JSON** — spans as complete (``"ph": "X"``)
  events, loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
  :func:`serving_trace_events` renders per-request serving traces with
  one track (tid) per pipeline stage, so a slow request reads as a
  horizontal slice across the queue/assembly/kernel/reduction tracks.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.trace import Tracer

__all__ = [
    "chrome_trace_events",
    "jsonable",
    "load_report_json",
    "metrics_to_prometheus",
    "report_to_json",
    "serving_trace_events",
    "write_chrome_trace",
    "write_report_json",
    "write_serving_trace",
]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def jsonable(value):
    """Coerce span args / report values into strict-JSON-safe types.

    numpy scalars collapse to Python numbers, NaN/inf to ``None``,
    unknown objects to ``str`` — JSON output never fails.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        # numpy scalars subclass int/float-likes via __index__/__float__;
        # plain conversion normalises them and strips inf/nan.
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return int(value) if value.is_integer() else value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return jsonable(value.item())
    return str(value)


# ----------------------------------------------------------------------
# JSON run reports
# ----------------------------------------------------------------------
def report_to_json(report: RunReport, indent: int | None = 2) -> str:
    """Serialise a report to strict JSON (no NaN/Infinity literals)."""
    return json.dumps(jsonable(report.to_dict()), indent=indent, allow_nan=False)


def write_report_json(report: RunReport, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(report_to_json(report) + "\n")
    return path


def load_report_json(path: str | Path) -> RunReport:
    """Inverse of :func:`write_report_json`."""
    return RunReport.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Prometheus exposition text
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    name = _PROM_BAD.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_help(text: str) -> str:
    """Escape a ``# HELP`` string per the exposition-format spec:
    backslash and line-feed are the only escaped characters."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_le(bound: float) -> str:
    """A bucket bound as a Prometheus ``le`` label value."""
    return f"{bound:.6g}"


def metrics_to_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render a registry in Prometheus text exposition format.

    Every metric gets ``# HELP`` (when a help string exists, escaped)
    and ``# TYPE`` lines; histograms emit the spec's cumulative
    ``_bucket{le="..."}`` series (non-empty buckets plus the mandatory
    ``+Inf``) followed by ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    for metric in registry:
        name = _prom_name(f"{prefix}_{metric.name}")
        if metric.help:
            lines.append(f"# HELP {name} {_prom_help(metric.help)}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {metric.value:g}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {metric.value:g}")
        else:  # Histogram -> histogram series
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in metric.cumulative_buckets():
                lines.append(f'{name}_bucket{{le="{_prom_le(bound)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {metric.total:g}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(
    tracer: Tracer, pid: int = 1, tid: int = 1, process_name: str = "repro"
) -> list[dict]:
    """Spans as Chrome ``trace_event`` complete events.

    Timestamps are microseconds since the tracer epoch; nesting is
    reconstructed by the viewer from time containment, which the
    tracer's strict span nesting guarantees.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    for s in tracer.spans:
        events.append(
            {
                "name": s.name,
                "cat": s.category or "default",
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": jsonable(s.args),
            }
        )
    return events


def write_chrome_trace(tracer: Tracer, path: str | Path, **kwargs) -> Path:
    """Write a ``chrome://tracing`` / Perfetto-loadable trace file."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(tracer, **kwargs),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload, allow_nan=False))
    return path


#: Display order of the serving pipeline stages — one Chrome track each.
SERVING_STAGE_ORDER = (
    "queue_wait",
    "batch_assembly",
    "kernel",
    "reduction",
    "response_fanout",
)


def serving_trace_events(responses, pid: int = 1) -> list[dict]:
    """Per-request serving traces as Chrome events, one track per stage.

    ``responses`` is any iterable of objects carrying a ``trace`` with
    ``spans`` (duck-typed against
    :class:`repro.serving.tracing.RequestTrace`); responses without a
    trace are skipped.  Stage spans become complete events named by
    their trace id on the stage's track, so sorting a track by duration
    surfaces the slowest requests per pipeline stage, and one request
    reads as a horizontal slice across all tracks.  Timestamps are
    *simulated* microseconds.
    """
    tids = {stage: i + 1 for i, stage in enumerate(SERVING_STAGE_ORDER)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "tahoe-serving"},
        }
    ]
    for stage, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"stage:{stage}"},
            }
        )
    for response in responses:
        trace = getattr(response, "trace", None)
        if trace is None:
            continue
        for s in trace.spans:
            tid = tids.get(s.stage)
            if tid is None:
                tid = tids[s.stage] = len(tids) + 1
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": f"stage:{s.stage}"},
                    }
                )
            events.append(
                {
                    "name": trace.trace_id,
                    "cat": "serving",
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": (s.end - s.start) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": jsonable(
                        dict(s.args, request_id=trace.request_id, stage=s.stage)
                    ),
                }
            )
    return events


def write_serving_trace(responses, path: str | Path, **kwargs) -> Path:
    """Write per-request serving traces as a Chrome/Perfetto trace file."""
    path = Path(path)
    payload = {
        "traceEvents": serving_trace_events(responses, **kwargs),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload, allow_nan=False))
    return path

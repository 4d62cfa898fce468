"""Traced runs: spans around each layer's entry points, and the per-layer
metrics computed from them.

A traced run wraps the attribute each caller looks up (a module global
such as ``repro.core.native.rank_hardware_targets``, or a method on its
class) in a function that records a span: name, phase, start, end and
parent.  Spans stay in memory and are written as a Chrome trace when
the run ends.  A layer's self time is its spans' duration minus their
children's.  The workload's own load generator records the phase root
(``loadgen.phase``), its sleeps (``loadgen.idle``) and its own work
(``loadgen.send``, ``loadgen.collect``, ``loadgen.check``), and calls the
program directly under the root.  The root's self time is therefore
what no span accounts for: program work no wrapper covers, and the
loop's glue.  ``trace.unaccounted_frac`` reports it as a share of the
phase's wall time.

An untraced run installs nothing: ``Tracer(enabled=False)`` only sleeps.
Wrapper targets that no longer exist are reported, and the metrics that
need them come out as ``null``; the benchmark keeps running.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from stats import fifo_queue_waits, percentile

clock = time.perf_counter

#: The sleeper spins through this much before each wake-up.  Sleeps on
#: the machine the benchmark was tuned on overshot by 0.1 ms at the
#: median and up to 0.5 ms at p90, varying with other tenants' load,
#: and every overshoot would count as latency of the program.
SPIN_S = 0.001

#: (module, attribute, span name).  The attribute is the one the caller
#: looks up at call time, so the wrapper sees every call.
TARGETS = (
    ("repro.core.native", "NativeEngine.predict", "core.native.predict"),
    ("repro.core.native", "NativeEngine.explain", "explain.native_explain"),
    ("repro.core.native", "flatten_native", "core.native.flatten"),
    ("repro.core.native", "rank_hardware_targets", "perfmodel.rank_targets"),
    ("repro.core.native", "calibrate_native_model", "perfmodel.native_calibrate"),
    ("repro.core.native", "finalize_predictions", "strategies.finalize"),
    ("repro.core.native", "measure_hardware_parameters", "perfmodel.hardware_measure"),
    ("repro.core.engine", "measure_hardware_parameters", "perfmodel.hardware_measure"),
    ("repro.serving.server", "measure_hardware_parameters", "perfmodel.hardware_measure"),
    ("repro.serving.server", "TahoeServer.run", "serving.run"),
    ("repro.serving.server", "TahoeServer.summary", "serving.summary"),
    ("repro.serving.server", "TahoeServer.plan_flush_point", "serving.flush_plan"),
    ("repro.obs.recorder", "RunRecorder.record_batch", "obs.record_batch"),
    ("repro.obs.recorder", "RunRecorder.record_decision", "obs.record_decision"),
    ("repro.explain.kernel", "compute_shap", "explain.compute_shap"),
    ("repro.explain.paths", "path_set_for_layout", "explain.path_set"),
    ("repro.modelstore.artifact", "load_packed", "modelstore.load_packed"),
    ("repro.core.engine", "rearrange_forest_nodes", "formats.node_rearrange"),
    ("repro.core.engine", "similarity_tree_order", "formats.tree_order"),
    ("repro.core.engine", "build_interleaved_layout", "formats.layout_build"),
    ("repro.core.fil", "build_reorg_layout", "formats.layout_build"),
    ("repro.gpusim.trace", "flatten_layout", "gpusim.flatten_layout"),
    ("repro.core.engine", "rank_strategies", "perfmodel.rank_strategies"),
    ("repro.core.engine", "TahoeEngine.predict", "core.engine.predict"),
    ("repro.core.fil", "FILEngine.predict", "core.fil.predict"),
    ("repro.strategies", "DirectStrategy.run", "gpusim.strategy_run"),
    ("repro.strategies", "SharedDataStrategy.run", "gpusim.strategy_run"),
    ("repro.strategies", "SharedForestStrategy.run", "gpusim.strategy_run"),
    ("repro.strategies", "SplittingSharedForestStrategy.run", "gpusim.strategy_run"),
)

#: Spans that record the row count of their batch argument.
ROWS_ARG = {"core.native.predict": 1, "explain.native_explain": 1}

ENGINE_CALLS = ("core.native.predict", "explain.native_explain")

#: Per-layer metric -> (span names, statistic, scope).  ``setup`` scope is
#: the median over set-up repetitions, ``run`` the total over the
#: measured phases.
SPAN_METRICS = {
    "core.native.predict_calls": (("core.native.predict",), "count", "run"),
    "core.native.predict_busy_s": (("core.native.predict",), "busy", "run"),
    "core.native.traverse_s": (("core.native.predict",), "self", "run"),
    "core.native.flatten_s": (("core.native.flatten",), "busy", "setup"),
    "serving.run_calls": (("serving.run",), "count", "run"),
    "serving.run_busy_s": (("serving.run",), "busy", "run"),
    "serving.summary_s": (("serving.summary",), "busy", "run"),
    "serving.flush_plan_s": (("serving.flush_plan",), "busy", "setup"),
    "obs.record_s": (("obs.record_batch", "obs.record_decision"), "busy", "run"),
    "perfmodel.rank_targets_s": (("perfmodel.rank_targets",), "busy", "run"),
    "perfmodel.rank_strategies_s": (("perfmodel.rank_strategies",), "busy", "run"),
    "perfmodel.hardware_measure_s": (("perfmodel.hardware_measure",), "busy", "setup"),
    "perfmodel.native_calibrate_s": (("perfmodel.native_calibrate",), "busy", "setup"),
    "strategies.finalize_s": (("strategies.finalize",), "busy", "run"),
    "explain.calls": (("explain.native_explain",), "count", "run"),
    "explain.busy_s": (("explain.native_explain",), "busy", "run"),
    "explain.path_set_s": (("explain.path_set",), "busy", "setup"),
    "modelstore.load_s": (("modelstore.load_packed",), "busy", "setup"),
    "formats.node_rearrange_s": (("formats.node_rearrange",), "busy", "setup"),
    "formats.tree_order_s": (("formats.tree_order",), "busy", "setup"),
    "formats.layout_build_s": (("formats.layout_build",), "busy", "setup"),
    "gpusim.flatten_layout_s": (("gpusim.flatten_layout",), "busy", "setup"),
    "gpusim.strategy_run_s": (("gpusim.strategy_run",), "busy", "run"),
    "core.engine.predict_busy_s": (("core.engine.predict",), "busy", "run"),
    "core.fil.predict_busy_s": (("core.fil.predict",), "busy", "run"),
    "python.gc_pause_s": (("python.gc",), "busy", "run"),
}

#: Derived metrics -> the spans they read.
DERIVED_NEEDS = {
    "core.native.us_per_row": ("core.native.predict",),
    "explain.us_per_row": ("explain.native_explain",),
    "serving.self_us_per_request": ("serving.run", "serving.summary"),
    "serving.batches": ENGINE_CALLS,
    "serving.rows_per_batch": ENGINE_CALLS,
    "serving.batch_fill": ENGINE_CALLS,
    "serving.queue_wait_ms_p50": ENGINE_CALLS,
    "serving.queue_wait_ms_p99": ENGINE_CALLS,
    "obs.record_batch_per_batch": ("obs.record_batch",) + ENGINE_CALLS,
}


#: What a disabled tracer's ``span`` returns.
_NO_SPAN = nullcontext()


def layer_of(name: str) -> str:
    """``core.native.predict`` -> ``core.native``; idle time is its own line."""
    return "idle" if name == "loadgen.idle" else name.rsplit(".", 1)[0]


class _Span:
    """A load-generator span (a class: cheaper than a generator context)."""

    __slots__ = ("tracer", "name", "t_enter", "index")

    def __init__(self, tracer, name: str, t_enter: float) -> None:
        self.tracer, self.name, self.t_enter = tracer, name, t_enter

    def __enter__(self) -> None:
        self.index = self.tracer.begin(self.name, None, self.t_enter)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class Tracer:
    """Span recorder and sleeper for one run.

    A span is ``[name, phase, start, end, parent, extra, cost]``; ``extra``
    is the batch's row count for engine calls and the generation for
    garbage collections.  ``cost`` is the tracer's own time around the
    span, timed in place: it is spent inside the parent but is neither
    the parent's work nor the span's, so it is charged to ``trace``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.phase_name = "prep"
        self.phase_wall: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- recording ----------------------------------------------------
    def begin(self, name: str, extra=None, t_enter: float | None = None) -> int:
        """Open a span; ``t_enter`` is when the tracer's work for it began."""
        if t_enter is None:
            t_enter = clock()
        rec = [name, self.phase_name, 0.0, 0.0, self._stack[-1] if self._stack else -1, extra, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[2] = clock()
        rec[6] = rec[2] - t_enter
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        rec = self.spans[index]
        rec[3] = clock()
        self._stack.pop()
        rec[6] += clock() - rec[3]

    @contextmanager
    def phase(self, name: str):
        """A workload phase: a root span the phase's work nests under."""
        if not self.enabled:
            yield
            return
        previous, self.phase_name = self.phase_name, name
        t0 = clock()
        root = self.begin("loadgen.phase")
        try:
            yield
        finally:
            self.end(root)
            self.phase_wall[name] = clock() - t0
            self.phase_name = previous

    def span(self, name: str):
        """A span of the load generator's own work; nothing when disabled.
        It must not contain program calls, or their time would count as
        the load generator's."""
        return _Span(self, name, clock()) if self.enabled else _NO_SPAN

    def idle_until(self, wake: float) -> None:
        """Sleep until ``wake`` (a ``clock()`` reading), spinning through
        the last ``SPIN_S``."""
        t_enter = clock()
        delay = wake - t_enter
        if delay <= 0:
            return
        i = self.begin("loadgen.idle", None, t_enter) if self.enabled else None
        if delay > SPIN_S:
            time.sleep(delay - SPIN_S)
        while clock() < wake:
            pass
        if i is not None:
            self.end(i)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every target and hook the garbage collector."""
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module_name}.{attr} not found ({exc})"
                continue
            setattr(owner, leaf, self._wrap(original, name))
            self._installed.append((owner, leaf, original))
        gc.callbacks.append(self._on_gc)
        for name, reason in sorted(self.missing.items()):
            print(f"warning: not traced: {name}: {reason}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, name: str):
        tracer = self
        rows_arg = ROWS_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            extra = None
            if rows_arg is not None and len(args) > rows_arg:
                extra = int(np.shape(args[rows_arg])[0])
            i = tracer.begin(name, extra, t_enter)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(i)

        return traced

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self.begin("python.gc", info["generation"])
        elif self._stack and self.spans[self._stack[-1]][0] == "python.gc":
            self.end(self._stack[-1])

    # -- output -------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"phase": phase, "parent": parent},
            }
            for name, phase, start, end, parent, *_ in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Agg:
    __slots__ = ("count", "busy", "self", "rows")

    def __init__(self) -> None:
        self.count = 0
        self.busy = 0.0
        self.self = 0.0
        self.rows = 0


def _aggregate(spans) -> tuple[dict, dict]:
    """Per (phase, name): count, busy and rows of the outermost spans of
    that name, and their self time; plus per phase, each layer's self
    time, with the phase root's as ``unaccounted`` and the tracer's own
    as ``trace``."""
    child = [0.0] * len(spans)
    for name, phase, start, end, parent, _, cost in spans:
        if parent >= 0:
            child[parent] += end - start + cost
    agg: dict[tuple, _Agg] = {}
    by_layer: dict[str, dict[str, float]] = {}
    for i, (name, phase, start, end, parent, extra, cost) in enumerate(spans):
        dur = end - start
        a = agg.setdefault((phase, name), _Agg())
        a.self += dur - child[i]
        layers = by_layer.setdefault(phase, {})
        line = "unaccounted" if name == "loadgen.phase" else layer_of(name)
        layers[line] = layers.get(line, 0.0) + dur - child[i]
        if parent >= 0:
            layers["trace"] = layers.get("trace", 0.0) + cost
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p >= 0:
            continue  # nested in a span of the same name: counted there
        a.count += 1
        a.busy += dur
        if name in ROWS_ARG and extra is not None:
            a.rows += extra
    return agg, by_layer


def layer_metrics(tracer: Tracer, info: dict, names) -> tuple[dict, dict]:
    """Every per-layer metric in ``names``, and the per-phase breakdown.

    ``info`` comes from the workload: ``setup_phases``, ``run_phases``,
    ``open_phases`` (open-loop phase -> ``due``/``rows``/``late`` arrays of
    its served requests, in submission order), ``requests``,
    ``target_batch`` and the simulator's ``traffic`` counts.
    """
    agg, by_layer = _aggregate(tracer.spans)
    run_phases = set(info["run_phases"])
    setup_phases = info["setup_phases"]
    open_phases = info["open_phases"]

    def total(span_names, stat, phases=run_phases):
        return sum(
            getattr(agg[(ph, n)], stat) for ph in phases for n in span_names if (ph, n) in agg
        )

    out: dict[str, float | None] = {}
    for metric, (span_names, stat, scope) in SPAN_METRICS.items():
        if scope == "setup":
            out[metric] = statistics.median(total(span_names, stat, [ph]) for ph in setup_phases)
        else:
            out[metric] = total(span_names, stat)

    native_rows = total(("core.native.predict",), "rows")
    explain_rows = total(("explain.native_explain",), "rows")
    calls = total(ENGINE_CALLS, "count") if open_phases else 0
    target = info["target_batch"] or 0
    out["core.native.us_per_row"] = 1e6 * out["core.native.predict_busy_s"] / max(1, native_rows)
    out["explain.us_per_row"] = 1e6 * out["explain.busy_s"] / max(1, explain_rows)
    out["serving.self_us_per_request"] = (
        1e6 * total(("serving.run", "serving.summary"), "self") / max(1, info["requests"])
    )
    out["serving.batches"] = calls
    out["serving.rows_per_batch"] = (native_rows + explain_rows) / calls if calls else 0.0
    out["serving.target_batch"] = target
    out["serving.batch_fill"] = out["serving.rows_per_batch"] / target if target else 0.0
    engine_calls = total(ENGINE_CALLS, "count")
    out["obs.record_batch_per_batch"] = (
        total(("obs.record_batch",), "count") / engine_calls if engine_calls else 0.0
    )

    starts = {phase: ([], []) for phase in open_phases}
    for name, phase, start, _, _, extra, _ in tracer.spans:
        if phase in starts and name in ENGINE_CALLS and extra is not None:
            starts[phase][0].append(start)
            starts[phase][1].append(extra)
    if open_phases:
        waits = np.concatenate(
            [fifo_queue_waits(log["due"], log["rows"], *starts[ph]) for ph, log in open_phases.items()]
        )
        late = np.concatenate([log["late"] for log in open_phases.values()])
        out["serving.queue_wait_ms_p50"] = percentile(waits * 1e3, 50)
        out["serving.queue_wait_ms_p99"] = percentile(waits * 1e3, 99)
        out["loadgen.late_ms_p99"] = percentile(late * 1e3, 99)
    else:
        out["serving.queue_wait_ms_p50"] = out["serving.queue_wait_ms_p99"] = 0.0
        out["loadgen.late_ms_p99"] = 0.0
    wall = sum(tracer.phase_wall.get(ph, 0.0) for ph in run_phases)
    out["serving.idle_frac"] = total(("loadgen.idle",), "busy") / wall if wall else 0.0

    gc_spans = [s for s in tracer.spans if s[0] == "python.gc" and s[1] in run_phases]
    out["python.gc_pause_ms_max"] = max((s[3] - s[2] for s in gc_spans), default=0.0) * 1e3
    out["python.gc_gen2_count"] = sum(1 for s in gc_spans if s[5] == 2)
    out.update(info["traffic"])
    out["loadgen.reference_ms"] = info["reference_ms"]

    traced_s = sum(by_layer.get(ph, {}).get("trace", 0.0) for ph in run_phases)
    out["trace.overhead_frac"] = traced_s / wall if wall else 0.0
    out["trace.unaccounted_frac"] = max(
        (
            by_layer.get(ph, {}).get("unaccounted", 0.0) / tracer.phase_wall[ph]
            for ph in run_phases
            if tracer.phase_wall.get(ph)
        ),
        default=0.0,
    )

    for metric, needs in DERIVED_NEEDS.items():
        if any(n in tracer.missing for n in needs):
            out[metric] = None
    for metric, (span_names, _, _) in SPAN_METRICS.items():
        if any(n in tracer.missing for n in span_names):
            out[metric] = None
    unknown = set(names) - set(out)
    if unknown:
        raise KeyError(f"per-layer metrics declared but not measured: {sorted(unknown)}")
    breakdown = {
        phase: {
            "wall_s": tracer.phase_wall.get(phase, 0.0),
            "self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        }
        for phase, layers in by_layer.items()
        if phase in run_phases or phase in setup_phases
    }
    return {n: out[n] for n in names}, breakdown

"""Command-line interface.

Drives the library end to end without writing Python::

    python -m repro specs
    python -m repro train --dataset Higgs --scale 0.004 --out forest.json
    python -m repro import --model xgb_model.json --out forest.json
    python -m repro convert --forest forest.json
    python -m repro pack --forest forest.json --gpu P100 --out model.tahoe
    python -m repro models forest.json model.tahoe
    python -m repro profile --forest forest.json
    python -m repro rank --forest forest.json --gpu P100 --batch 10000
    python -m repro predict --forest forest.json --dataset Higgs --gpu P100
    python -m repro trace --forest forest.json --dataset Higgs --out trace.json

Anywhere a command takes ``--forest`` it accepts any model-store format:
native forest JSON (v1/v2), a packed ``.tahoe`` artifact (``predict`` /
``serve`` skip conversion entirely), or a raw XGBoost / LightGBM /
sklearn-export dump (imported on the fly).  ``import`` converts a dump
once and saves native JSON; ``pack`` bakes the converted adaptive layout
into a ``.tahoe`` artifact; ``models`` inventories model files.

Every subcommand prints a compact human-readable report; ``predict``
compares Tahoe against the FIL baseline on the dataset's inference
split.  ``predict --report-json out.json`` additionally writes the run's
:class:`~repro.obs.report.RunReport` (conversion stages, per-batch
strategy decisions with predicted and simulated times, traffic
counters); ``predict --cprofile out.pstats`` additionally dumps CPU
profiler data for the run (the workflow behind docs/performance.md);
``trace`` records spans and writes a Chrome ``trace_event`` file
loadable in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import ENGINE_KINDS, FILEngine, ObsConfig, TahoeConfig, TahoeEngine, convert_forest
from repro.datasets import DATASET_ORDER, DATASETS, load_dataset, train_test_split
from repro.formats import build_reorg_layout
from repro.gpusim.specs import GPU_SPECS
from repro.perfmodel import measure_hardware_parameters, rank_strategies
from repro.trees import train_forest_for_spec
from repro.trees.io import save_forest

__all__ = ["main"]


def _cmd_specs(args: argparse.Namespace) -> int:
    print(f"{'name':22} {'gen':8} {'SMs':>4} {'BW GB/s':>8} {'SMEM/blk':>9} {'latency':>9}")
    for key, spec in GPU_SPECS.items():
        print(
            f"{key + ' (' + spec.name + ')':22} {spec.generation:8} "
            f"{spec.sm_count:>4} {spec.global_bw / 1e9:>8.0f} "
            f"{spec.shared_mem_per_block:>9} {spec.memory_latency * 1e9:>7.0f}ns"
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'#':>2} {'dataset':10} {'samples':>9} {'attrs':>6} {'type':>5} "
          f"{'trees':>6} {'depth':>6}")
    for name in DATASET_ORDER:
        s = DATASETS[name]
        print(
            f"{s.index:>2} {s.name:10} {s.n_samples:>9} {s.n_attributes:>6} "
            f"{s.forest_type:>5} {s.n_trees:>6} {s.max_depth:>6}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    workload = train_forest_for_spec(
        args.dataset,
        scale=args.scale,
        tree_scale=args.tree_scale,
        seed=args.seed,
    )
    forest = workload.forest
    save_forest(forest, args.out)
    depths = forest.tree_depths()
    print(
        f"trained {forest.n_trees} trees on {args.dataset} "
        f"(depths {depths.min()}-{depths.max()}, {forest.n_nodes} nodes) -> {args.out}"
    )
    return 0


def _load_any_model(path, *, n_attributes=None):
    """``--forest`` accepts every model-store format: returns
    ``(forest, packed_or_None)``; a packed artifact's forest is its
    layout's."""
    from repro.modelstore import PackedModel, load_model

    model = load_model(path, n_attributes=n_attributes)
    if isinstance(model, PackedModel):
        return model.layout.forest, model
    return model, None


def _inference_X(args: argparse.Namespace) -> np.ndarray:
    """The ``--dataset`` inference split, capped at ``--limit`` rows."""
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    X = train_test_split(data, seed=args.seed).test.X
    return X[: args.limit] if args.limit else X


def _tahoe_engine(args, spec, forest, packed):
    """A Tahoe engine for ``--forest``; a packed Tahoe layout skips conversion."""
    if packed is not None and packed.engine_kind == "tahoe":
        print(f"loaded packed layout {args.forest} (conversion skipped)")
        return packed.make_engine(spec)
    return TahoeEngine(forest, spec)


def _write_report(report, args: argparse.Namespace) -> None:
    """Write a run's :class:`~repro.obs.report.RunReport` to ``--report-json``."""
    from repro.obs import write_report_json

    report.dataset = args.dataset
    write_report_json(report, args.report_json)
    print(f"wrote {args.report_json}")


def _cmd_convert(args: argparse.Namespace) -> int:
    forest, _ = _load_any_model(args.forest)
    reorg = build_reorg_layout(forest)
    adaptive = convert_forest(forest, TahoeConfig())[0]
    swaps = sum(int(t.flip.sum()) for t in adaptive.forest.trees)
    print(f"forest: {forest.n_trees} trees, {forest.n_nodes} nodes")
    print(f"reorg layout:    {reorg.total_bytes:>10} B (node size {reorg.node_size})")
    print(
        f"adaptive layout: {adaptive.total_bytes:>10} B "
        f"(node size {adaptive.node_size}, "
        f"{1 - adaptive.total_bytes / reorg.total_bytes:.1%} saved)"
    )
    print(f"node rearrangement swapped {swaps} children")
    print(f"similarity tree order: {adaptive.tree_order[:12]}{'...' if forest.n_trees > 12 else ''}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.trees.analysis import structure_profile

    forest, _ = _load_any_model(args.forest)
    info = structure_profile(forest)
    if args.report_json:
        from repro.obs.exporters import jsonable

        payload = {"schema_version": 1, "kind": "structure_profile", "profile": info}
        Path(args.report_json).write_text(json.dumps(jsonable(payload), indent=2))
        print(f"wrote {args.report_json}")
    print(f"trees: {info['n_trees']}   nodes: {info['n_nodes']}")
    print(
        f"depths: {info['depth_min']}-{info['depth_max']} "
        f"(mean {info['depth_mean']:.1f})"
    )
    hist = "  ".join(f"d{d}:{c}" for d, c in info["depth_histogram"].items())
    print(f"depth histogram: {hist}")
    print(
        f"hot-path skew: {info['hot_path_skew']:.2f} "
        f"-> node-rearrangement benefit: {info['node_rearrangement_benefit']}"
    )
    print(
        f"work dispersion: {info['work_dispersion']:.2f} "
        f"-> tree-rearrangement benefit: {info['tree_rearrangement_benefit']}"
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from repro.perfmodel import rank_explain_strategies, rank_node_encodings

    forest, _ = _load_any_model(args.forest)
    spec = GPU_SPECS[args.gpu]
    layout = convert_forest(forest, TahoeConfig())[0]
    hw = measure_hardware_parameters(spec)
    for title, ranker in (
        (f"predicted batch time on {spec.name}, batch={args.batch}:", rank_strategies),
        ("explain (SHAP) strategies:", rank_explain_strategies),
    ):
        print(title)
        for choice in ranker(layout, args.batch, spec, hw):
            t = choice.predicted_time
            label = "inapplicable" if t == float("inf") else f"{t * 1e3:10.4f} ms"
            print(f"  {choice.name:26} {label}  {choice.prediction.note}")
    print("node encodings ranked by predicted bytes moved:")
    ranked = rank_node_encodings(layout, args.batch, spec, hw)
    for i, enc in enumerate(ranked):
        marks = []
        if i == 0:
            marks.append("<- pick")
        if enc.current:
            marks.append("(current)")
        if enc.shared_forest_fits:
            marks.append("fits shared mem")
        print(
            f"  {enc.name:10} {enc.node_bytes} B/node  "
            f"{enc.bytes_moved / 1e6:10.3f} MB moved  "
            f"s_forest {enc.s_forest:>10} B  "
            f"best {enc.best_strategy:24} {' '.join(marks)}"
        )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    spec = GPU_SPECS[args.gpu]
    forest, packed = _load_any_model(args.forest, n_attributes=args.n_attributes)
    X = _inference_X(args)
    if args.backend == "native":
        return _predict_native(args, spec, forest, packed, X)
    tahoe = _tahoe_engine(args, spec, forest, packed)
    fil = FILEngine(forest, spec)
    profiler = None
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    rt = tahoe.predict(X, batch_size=args.batch, report=bool(args.report_json))
    rf = fil.predict(X, batch_size=args.batch)
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.cprofile)
        print(
            f"wrote {args.cprofile} — inspect with "
            f"python -m pstats {args.cprofile} (sort cumtime / stats 25)"
        )
    if not np.allclose(rt.predictions, rf.predictions, atol=1e-5):
        print("WARNING: engines disagree on predictions", file=sys.stderr)
        return 1
    if args.report_json:
        rt.report.meta["fil_total_time"] = rf.total_time
        _write_report(rt.report, args)
    print(f"samples: {X.shape[0]}, batch: {args.batch or X.shape[0]}")
    print(f"FIL:   {rf.total_time * 1e3:9.3f} ms simulated")
    print(
        f"Tahoe: {rt.total_time * 1e3:9.3f} ms simulated "
        f"({', '.join(sorted(set(rt.strategies_used)))})"
    )
    print(f"speedup: {rf.total_time / rt.total_time:.2f}x")
    if args.verbose:
        from repro.gpusim.report import format_strategy_report

        print("\n[FIL first batch]")
        print(format_strategy_report(rf.batches[0]))
        print("\n[Tahoe first batch]")
        print(format_strategy_report(rt.batches[0]))
    return 0


def _predict_native(args, spec, forest, packed, X) -> int:
    """``predict --backend native``: wall-clock execution, with the
    simulator engine run alongside as the bit-identity reference."""
    import time as _time

    from repro.core.native import HAVE_NUMBA, NativeEngine

    if packed is not None:
        native = packed.make_engine(spec, backend="native")
        reference = packed.make_engine(spec)
        print(f"loaded packed layout {args.forest} (conversion skipped)")
    else:
        native = NativeEngine(forest, spec)
        reference = TahoeEngine(forest, spec)
    t0 = _time.perf_counter()
    rn = native.predict(X, batch_size=args.batch, report=bool(args.report_json))
    wall = _time.perf_counter() - t0
    rr = reference.predict(X, batch_size=args.batch)
    if not np.array_equal(rn.predictions, rr.predictions):
        print(
            "WARNING: native predictions are not bit-identical to the "
            "simulator's",
            file=sys.stderr,
        )
        return 1
    if args.report_json:
        _write_report(rn.report, args)
    print(f"samples: {X.shape[0]}, batch: {args.batch or X.shape[0]}")
    print(
        f"native ({native.kernel} kernel, numba {'on' if HAVE_NUMBA else 'off'}): "
        f"{rn.total_time * 1e3:9.3f} ms wall "
        f"({rn.throughput:,.0f} samples/s, predict() end-to-end "
        f"{wall * 1e3:.3f} ms)"
    )
    print(
        f"simulated ({type(reference).__name__}): {rr.total_time * 1e3:9.3f} ms "
        "on the simulated clock (not comparable to wall time)"
    )
    print("predictions bit-identical to the simulator: yes")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: exact SHAP attributions on a dataset split.

    Mirrors ``predict``: Tahoe (model-selected explain strategy) vs FIL
    (fixed direct kernel) on the simulated clock, or ``--backend
    native`` for wall-clock numbers.  Always checks the SHAP efficiency
    axiom — per-sample attributions plus the base value must reconstruct
    the engine's raw margins exactly (float64 tolerance).
    """
    spec = GPU_SPECS[args.gpu]
    forest, packed = _load_any_model(args.forest, n_attributes=args.n_attributes)
    X = _inference_X(args)

    if args.backend == "native":
        from repro.core.native import HAVE_NUMBA, NativeEngine

        if packed is not None:
            engine = packed.make_engine(spec, backend="native")
            print(f"loaded packed layout {args.forest} (conversion skipped)")
        else:
            engine = NativeEngine(forest, spec)
        result = engine.explain(X, batch_size=args.batch, report=bool(args.report_json))
        label = (
            f"native ({engine.kernel} kernel, numba {'on' if HAVE_NUMBA else 'off'})"
        )
        clock = "wall"
        runs = [(label, result)]
    else:
        tahoe = _tahoe_engine(args, spec, forest, packed)
        fil = FILEngine(forest, spec)
        result = tahoe.explain(X, batch_size=args.batch, report=bool(args.report_json))
        rf = fil.explain(X, batch_size=args.batch)
        # Same kernel and semantics, but the adaptive layout reorders
        # trees, so float64 accumulation order differs from reorg.
        if not np.allclose(result.attributions, rf.attributions, rtol=1e-9, atol=1e-12):
            print("WARNING: engines disagree on attributions", file=sys.stderr)
            return 1
        clock = "simulated"
        runs = [("Tahoe", result), ("FIL", rf)]

    # Efficiency axiom: base + sum of attributions == raw margin.
    margins = np.asarray(result.predictions, dtype=np.float64)
    recon = np.asarray(result.base_values) + np.asarray(result.attributions).sum(axis=1)
    if not np.allclose(recon, margins, rtol=1e-9, atol=1e-12):
        print("WARNING: efficiency axiom violated", file=sys.stderr)
        return 1
    phi = result.attributions
    K = forest.n_classes
    print(
        f"samples: {X.shape[0]}, features: {forest.n_attributes}, "
        f"classes: {K}, batch: {args.batch or X.shape[0]}"
    )
    print(f"attributions shape: {phi.shape}  (efficiency axiom: holds)")
    for label, run in runs:
        strategies = ", ".join(sorted(set(run.strategies_used)))
        print(
            f"{label + ':':32} {run.total_time * 1e3:9.3f} ms {clock} "
            f"({run.throughput:,.0f} samples/s; {strategies})"
        )
    if len(runs) == 2:
        print(f"speedup: {runs[1][1].total_time / runs[0][1].total_time:.2f}x")
    # Global importance: mean |phi| per feature, summed over classes.
    flat = np.abs(phi.reshape(phi.shape[0], forest.n_attributes, -1)).mean(0).sum(1)
    order = np.argsort(flat)[::-1][: args.top]
    print(f"top {len(order)} features by mean |attribution|:")
    for f in order:
        print(f"  f{int(f):<4} {flat[f]:12.6f}")
    if args.report_json:
        _write_report(result.report, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.benchdiff import bench_envelope
    from repro.obs.exporters import jsonable, write_serving_trace
    from repro.serving import SchedulerConfig, SLOConfig, TahoeServer, poisson_workload

    if args.quick:
        args.qps = min(args.qps, 500.0)
        args.duration = min(args.duration, 0.5)
    spec = GPU_SPECS[args.gpu]
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    X_pool = train_test_split(data, seed=args.seed).test.X
    # The configs and the request list are built before a forest is
    # trained or a file written: a bad flag value is a usage error.
    try:
        scheduler = SchedulerConfig(
            n_engines=args.n_engines,
            max_batch=args.max_batch,
            max_wait=args.max_wait_ms / 1e3,
            max_queue=args.max_queue,
            backend=args.backend,
        )
        slo = SLOConfig(
            latency_p95=args.slo_p95_ms / 1e3 if args.slo_p95_ms else None,
            error_rate=args.slo_error_rate if args.slo_error_rate else None,
            window=args.slo_window_ms / 1e3,
        )
        requests = poisson_workload(
            X_pool,
            qps=args.qps,
            duration=args.duration,
            seed=args.seed,
            deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
            burst_factor=args.burst_factor,
        )
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    if args.forest is not None:
        forest, packed = _load_any_model(args.forest, n_attributes=X_pool.shape[1])
    else:
        forest, packed = train_forest_for_spec(
            args.dataset, scale=args.scale, tree_scale=args.tree_scale, seed=args.seed
        ).forest, None
    server = TahoeServer(
        forest if packed is None else None,
        spec,
        packed=packed,
        scheduler=scheduler,
        slo=slo,
    )
    if packed is not None:
        print(f"serving packed layout {args.forest} (conversion skipped)")
    result = server.run(requests, report=True)
    s = result.summary
    layers = dict(server.wall_layers(), time_domain="wall")
    scenario = (
        f"serving/{args.dataset}/{args.gpu}/qps{args.qps:g}x{args.burst_factor:g}"
        f"/d{args.duration:g}/e{args.n_engines}/{args.backend}"
    )
    payload_body = {
        "gpu": spec.name,
        "dataset": args.dataset,
        "time_domain": s["time_domain"],
        "config": {
            "backend": args.backend,
            "qps": args.qps,
            "duration_s": args.duration,
            "burst_factor": args.burst_factor,
            "n_engines": args.n_engines,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "max_queue": args.max_queue,
            "deadline_ms": args.deadline_ms,
            "slo_p95_ms": args.slo_p95_ms,
            "slo_error_rate": args.slo_error_rate,
            "quick": bool(args.quick),
            "baseline": bool(args.baseline),
        },
        "summary": s,
        "layers": layers,
    }
    if not args.baseline:
        # --baseline keeps the envelope a committable size: the summary
        # is the regression surface; the full report (per-batch records,
        # request traces) stays out.
        payload_body["report"] = result.report.to_dict()
    payload = bench_envelope(
        "serving", payload_body, kind="serving_bench", scenario=scenario
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(jsonable(payload), indent=2))
    if args.trace_out:
        write_serving_trace(result.responses, args.trace_out)
        print(
            f"wrote {args.trace_out} (per-request stage traces — open in "
            "chrome://tracing or https://ui.perfetto.dev)"
        )
    lat = s["latency_s"]
    wait = s["queue_wait_s"]
    print(
        f"served {s['completed']}/{s['requests']} requests "
        f"({s['rejected_queue_full']} backpressure, "
        f"{s['rejected_deadline']} expired, {s['deadline_misses']} late)"
    )
    print(
        f"offered {s['offered_qps']:.0f} qps (target {args.qps:.0f}) -> "
        f"achieved {s['achieved_qps']:.0f} qps "
        f"on {s['n_engines']} engine(s), flush point {s['target_batch']}"
    )
    print(
        f"backend: {s['backend']} ({s['time_domain']} clock) — "
        f"{s['achieved_samples_per_s']:,.0f} samples/s"
    )
    print(
        f"latency p50 {lat['p50'] * 1e3:.3f} ms  p95 {lat['p95'] * 1e3:.3f} ms  "
        f"p99 {lat['p99'] * 1e3:.3f} ms  max {lat['max'] * 1e3:.3f} ms "
        f"over {s['batches']} micro-batches"
    )
    print(
        f"queue wait p50 {wait['p50'] * 1e3:.3f} ms  p95 {wait['p95'] * 1e3:.3f} ms  "
        f"p99 {wait['p99'] * 1e3:.3f} ms"
    )
    print(
        f"wall layers of run() ({layers['run_s'] * 1e3:.1f} ms, "
        f"{layers['coverage']:.1%} accounted): "
        + ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in layers["parts_s"].items())
    )
    if s.get("slo"):
        slo_s = s["slo"]
        breaches = slo_s["breaches"]
        state = f"in breach: {', '.join(slo_s['in_breach'])}" if slo_s["in_breach"] else "met"
        print(
            f"SLO: {breaches} breach event(s) over "
            f"{len(slo_s['objectives'])} objective(s) — {state}"
        )
        for event in slo_s["events"]:
            print(
                f"  [{event['time'] * 1e3:9.3f} ms] {event['event']}: "
                f"{event['objective']} observed {event['observed']:.4g} "
                f"vs {event['threshold']:.4g}"
            )
    calib = result.report.calibration
    if calib and calib.get("n_decisions"):
        print(
            f"perf-model calibration: {calib['n_decisions']} decisions, "
            f"{calib['ranking_at_risk_fraction']:.1%} ranking-at-risk "
            f"(threshold {calib['ranking_risk_threshold']:.0%}) — "
            + ("DRIFTED" if calib["drifted"] else "healthy")
        )
    conv = s["conversion"]
    print(
        f"conversion: {conv['source']} {conv['total_s'] * 1e3:.2f} ms, "
        f"shared by {s['n_engines']} engine(s)"
    )
    print(f"wrote {out}")
    sustained = s["achieved_qps"] >= 0.9 * min(args.qps, s["offered_qps"])
    if not sustained and args.burst_factor <= 1.0:
        print("WARNING: configured QPS not sustained", file=sys.stderr)
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.obs.benchdiff import diff_envelopes, format_diff, load_envelope

    try:
        old = load_envelope(args.old)
        new = load_envelope(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        diff = diff_envelopes(
            old, new, rel_threshold=args.threshold, abs_floor=args.abs_floor
        )
    except ValueError as exc:
        # Cross-domain comparison (wall vs simulated clock): not a
        # regression verdict either way, so fail loudly as a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(format_diff(diff, verbose=args.verbose))
    if not diff.ok and not args.warn_only:
        return 1
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from repro.modelstore import import_model

    forest = import_model(
        args.model,
        format=args.format,
        n_attributes=args.n_attributes,
        name=args.name,
    )
    save_forest(forest, args.out)
    print(
        f"imported {forest.metadata.get('source_format', args.format)} model: "
        f"{forest.n_trees} trees, {forest.n_nodes} nodes, "
        f"{forest.n_attributes} attributes, task={forest.task}, "
        f"aggregation={forest.aggregation}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.formats.encoding import THRESHOLD_MODES
    from repro.modelstore import pack_layout

    spec = GPU_SPECS[args.gpu]
    forest, packed = _load_any_model(args.forest, n_attributes=args.n_attributes)
    if packed is not None:
        print(f"{args.forest} is already a packed artifact", file=sys.stderr)
        return 2
    fingerprint = forest.fingerprint()
    node_width = args.node_width
    if node_width is not None and node_width != "auto":
        node_width = int(node_width)
    config = TahoeConfig(node_width=node_width, threshold_mode=args.threshold_mode)
    cls = ENGINE_KINDS[args.engine]
    engine = cls(forest, spec, config=config)
    result = pack_layout(
        engine.layout,
        args.out,
        engine=args.engine,
        spec_name=spec.name,
        conversion_key=cls.conversion_key(config),
        source_fingerprint=fingerprint,
    )
    stats = engine.conversion_stats
    size = Path(args.out).stat().st_size
    print(
        f"converted in {stats.total * 1e3:.2f} ms "
        f"(rearrange {stats.t_node_rearrangement * 1e3:.2f} ms, "
        f"similarity {stats.t_similarity_detection * 1e3:.2f} ms, "
        f"format {stats.t_format_conversion * 1e3:.2f} ms)"
    )
    print(
        f"packed {result.layout.format_name} layout for {spec.name}: "
        f"{result.layout.forest.n_trees} trees, "
        f"{result.layout.total_bytes} layout bytes -> {args.out} ({size} B on disk)"
    )
    record = result.layout.record
    print(
        f"node encoding: {record.encoding_label} "
        f"({record.node_bytes} B/node = {record.attr_bytes} attr"
        f" + {THRESHOLD_MODES[record.threshold_mode]} float + {record.flags_bytes} flags)"
    )
    enc_meta = result.layout.metadata.get("node_encoding")
    if enc_meta is not None and not enc_meta.get("lossless", True):
        print("  (lossy float field: predictions bounded, not bit-identical)")
    sizes = result.section_sizes()  # one section per forest-wide field
    node_total = sizes["words"] + sizes["tfield"] + sizes["vfield"]
    parts = "  ".join(f"{k}={v}" for k, v in sizes.items())
    print(f"packed sections: node records {node_total} B of {sum(sizes.values())} B ({parts})")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.modelstore import ModelImportError, PackedModel, load_model

    paths: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            paths.extend(
                sorted(q for q in p.iterdir() if q.suffix in (".json", ".tahoe", ".txt"))
            )
        else:
            paths.append(p)
    print(
        f"{'file':32} {'format':16} {'trees':>6} {'nodes':>8} {'attrs':>6} "
        f"{'encoding':10} target"
    )
    status = 0
    for p in paths:
        try:
            model = load_model(p)
        except (ModelImportError, ValueError) as exc:
            print(f"{p.name:32} ERROR: {exc}")
            status = 1
            continue
        if isinstance(model, PackedModel):
            forest = model.layout.forest
            fmt = "tahoe-artifact"
            encoding = model.node_encoding
            target = f"{model.engine_kind}/{model.spec_name}"
        else:
            forest = model
            fmt = forest.metadata.get("source_format", "forest-json")
            encoding = "-"
            target = "-"
        print(
            f"{p.name:32} {fmt:16} {forest.n_trees:>6} {forest.n_nodes:>8} "
            f"{forest.n_attributes:>6} {encoding:10} {target}"
        )
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.gpusim.report import format_run_report
    from repro.obs import write_chrome_trace

    forest, _ = _load_any_model(args.forest)
    spec = GPU_SPECS[args.gpu]
    X = _inference_X(args)
    config = TahoeConfig(obs=ObsConfig(tracing=True))
    engine = TahoeEngine(forest, spec, config=config)
    result = engine.predict(X, batch_size=args.batch, report=True)
    result.report.dataset = args.dataset
    tracer = engine.recorder.tracer
    write_chrome_trace(tracer, args.out)
    print(
        f"wrote {args.out}: {len(tracer.spans)} spans "
        f"({tracer.dropped} dropped) — open in chrome://tracing or "
        f"https://ui.perfetto.dev"
    )
    if args.report_json:
        _write_report(result.report, args)
    print(format_run_report(result.report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tahoe reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by the commands that run a model on a dataset split.
    inference = argparse.ArgumentParser(add_help=False)
    inference.add_argument("--forest", type=Path, required=True)
    inference.add_argument("--dataset", required=True, choices=DATASET_ORDER)
    inference.add_argument("--gpu", choices=sorted(GPU_SPECS), default="P100")
    inference.add_argument("--scale", type=float, default=0.01)
    inference.add_argument("--seed", type=int, default=0)
    inference.add_argument("--batch", type=int, default=None)
    inference.add_argument("--limit", type=int, default=None)
    inference.add_argument("--report-json", type=Path, default=None, dest="report_json")
    engine_choice = argparse.ArgumentParser(add_help=False)
    engine_choice.add_argument(
        "--backend",
        choices=["tahoe", "native"],
        default="tahoe",
        help="tahoe = simulated Tahoe vs FIL comparison; native = vectorised "
        "host execution at wall-clock speed",
    )
    engine_choice.add_argument(
        "--n-attributes", type=int, default=None, dest="n_attributes",
        help="widen an imported model's attribute space to the dataset's",
    )

    sub.add_parser("specs", help="list the simulated GPU models").set_defaults(
        func=_cmd_specs
    )
    sub.add_parser("datasets", help="list the Table 2 dataset registry").set_defaults(
        func=_cmd_datasets
    )

    p = sub.add_parser("train", help="train a forest for a registry dataset")
    p.add_argument("--dataset", required=True, choices=DATASET_ORDER)
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--tree-scale", type=float, default=0.04, dest="tree_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "import",
        help="convert an XGBoost/LightGBM/sklearn model dump to native forest JSON",
    )
    p.add_argument("--model", type=Path, required=True, help="model dump to import")
    p.add_argument(
        "--format",
        default="auto",
        choices=["auto", "xgboost", "xgboost-dump", "lightgbm", "sklearn", "forest-json"],
    )
    p.add_argument(
        "--n-attributes", type=int, default=None,
        help="widen the attribute space (e.g. to match a dataset)",
    )
    p.add_argument("--name", default=None, help="forest name (file stem otherwise)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("convert", help="report adaptive-format conversion stats")
    p.add_argument("--forest", type=Path, required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "pack",
        help="run the conversion pipeline once and pack the layout as .tahoe",
    )
    p.add_argument("--forest", type=Path, required=True, help="any importable model file")
    p.add_argument("--gpu", choices=sorted(GPU_SPECS), default="P100")
    p.add_argument("--engine", choices=list(ENGINE_KINDS), default="tahoe")
    p.add_argument(
        "--n-attributes", type=int, default=None, dest="n_attributes",
        help="widen the attribute space before converting",
    )
    p.add_argument(
        "--node-width", choices=["auto", "8", "16", "32"], default=None,
        dest="node_width",
        help="simulate bit-packed fid+flags node words of 8/16/32 bits "
        "(auto = narrowest width that fits; default keeps the record with a "
        "separate flags byte); the artifact always stores packed words",
    )
    p.add_argument(
        "--threshold-mode", choices=["f32", "f16", "q8", "q16"], default="f32",
        dest="threshold_mode",
        help="float-field storage for packed records (f32 is lossless; "
        "q8/q16 ceil-quantise thresholds, nextafter-safe)",
    )
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("models", help="inventory model files (any supported format)")
    p.add_argument("paths", nargs="+", help="model files or directories to scan")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("profile", help="structural profile of a saved forest")
    p.add_argument("--forest", type=Path, required=True)
    p.add_argument("--report-json", type=Path, default=None, dest="report_json")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("rank", help="rank strategies with the performance models")
    p.add_argument("--forest", type=Path, required=True)
    p.add_argument("--gpu", choices=sorted(GPU_SPECS), default="P100")
    p.add_argument("--batch", type=int, default=10000)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "predict",
        parents=[inference, engine_choice],
        help="run Tahoe vs FIL on a dataset's inference split",
    )
    p.add_argument("--verbose", action="store_true")
    p.add_argument(
        "--cprofile", type=Path, default=None,
        help="profile both engines' predict() and dump pstats data to FILE",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "explain",
        parents=[inference, engine_choice],
        help="exact SHAP attributions (GPUTreeShap-style path kernel)",
    )
    p.add_argument(
        "--top", type=int, default=8, help="features to list by mean |attribution|"
    )
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "serve",
        help="micro-batching serving layer: drive open-loop Poisson "
        "traffic and write BENCH_serving.json",
    )
    p.add_argument("--quick", action="store_true", help="CI-sized run (caps qps/duration)")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="trim the envelope for committing as a baseline: summary "
        "only, no embedded report/traces",
    )
    p.add_argument(
        "--backend",
        choices=["tahoe", "native"],
        default="tahoe",
        help="native = NativeEngine replica pool (wall-clock service "
        "times, measured flush point)",
    )
    p.add_argument(
        "--forest", type=Path, default=None,
        help="serve this model file (any supported format; .tahoe skips "
        "conversion) instead of training one",
    )
    p.add_argument("--dataset", default="letter", choices=DATASET_ORDER)
    p.add_argument("--gpu", choices=sorted(GPU_SPECS), default="P100")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--tree-scale", type=float, default=0.05, dest="tree_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qps", type=float, default=2000.0, help="offered request rate")
    p.add_argument("--duration", type=float, default=2.0, help="arrival window, seconds")
    p.add_argument("--n-engines", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=1024)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--max-queue", type=int, default=4096)
    p.add_argument(
        "--deadline-ms", type=float, default=50.0,
        help="per-request latency budget (0 disables deadlines)",
    )
    p.add_argument(
        "--burst-factor", type=float, default=1.0,
        help="overload burst: the middle 20%% of the window runs at "
        "qps * FACTOR (default 1, flat traffic; try 20 to exercise the "
        "SLO monitor)",
    )
    p.add_argument(
        "--slo-p95-ms", type=float, default=10.0,
        help="p95 end-to-end latency objective (0 disables)",
    )
    p.add_argument(
        "--slo-error-rate", type=float, default=0.05,
        help="max failed-request fraction objective (0 disables)",
    )
    p.add_argument(
        "--slo-window-ms", type=float, default=100.0,
        help="rolling SLO evaluation window, simulated milliseconds",
    )
    p.add_argument(
        "--trace-out", type=Path, default=None,
        help="also write per-request stage traces as a Chrome/Perfetto file",
    )
    p.add_argument(
        "--out", type=Path, default=Path("benchmarks/results/BENCH_serving.json")
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="benchmark artifact tools")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "diff",
        help="compare two BENCH_*.json artifacts with noise-aware thresholds",
    )
    p.add_argument("old", type=Path, help="baseline artifact")
    p.add_argument("new", type=Path, help="candidate artifact")
    p.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative change below this is noise (default 10%%)",
    )
    p.add_argument(
        "--abs-floor", type=float, default=1e-9,
        help="absolute change below this is float jitter",
    )
    p.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soft gate)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verbose", action="store_true", help="list informational changes")
    p.set_defaults(func=_cmd_bench_diff)

    p = sub.add_parser(
        "trace",
        parents=[inference],
        help="run inference with tracing on and write a Chrome trace",
    )
    p.add_argument("--out", type=Path, default=Path("trace.json"))
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""The repo benchmark: four workloads, every metric printed by name and unit.

One run of one workload (the last line of stdout is the JSON result)::

    python3 benchmarks/e2e/run.py --workload offline-higgs --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` installs the
timing wrappers and reports the per-layer metrics instead, writing a
Chrome trace to ``results/<set>/<workload>.trace.json``.  Both lists,
with units, directions and bounds, are declared in ``BENCHMARK.json`` at
the repository root.

A set (5 untraced runs of every workload, round-robin with seeds
``seed+0..4``, then one traced run of each), written to
``results/<name>/set.json``::

    python3 benchmarks/e2e/run.py set NAME

With ``--parent CHECKOUT`` every run is made twice, back to back, by
this checkout and by the parent's (alternating which goes first), and
the parent's runs are written to ``results/<name>/parent/set.json``.
Only such paired sets can show a ``gain``::

    python3 benchmarks/e2e/run.py set NAME --runs 10 --parent ../parent
    python3 benchmarks/e2e/run.py compare NAME/parent NAME

Two sets, metric by metric and workload by workload::

    python3 benchmarks/e2e/run.py compare PARENT CHANGE

Recompute the input digests in ``inputs.json`` (only when the inputs
are meant to change)::

    python3 benchmarks/e2e/run.py pin

Exit codes: 0 ok, 1 a wrong output, failed operation or a regression,
2 the program under test is missing, 3 the inputs differ from their pins.
"""

from __future__ import annotations

import os

# Single-threaded children: the BLAS pools read these when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

EXIT_FAILED, EXIT_NO_PROGRAM, EXIT_INPUTS = 1, 2, 3
#: A child run that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 180


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"error: the program under test is missing ({exc}); expected {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def _finite(value):
    """JSON has no infinity: a non-finite measurement is reported as null."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def single(args) -> int:
    bench = load_benchmark()
    import_program()
    from layers import Tracer, layer_metrics

    pins = inputs.load_pins()
    fn, names = workloads.WORKLOADS[args.workload]
    if names is None:
        names = workloads.QUICK_FORESTS if args.quick else list(pins["forests"])
    try:
        loaded = inputs.load_inputs(names, pins)
    except inputs.InputMismatch as exc:
        print(f"error: {exc}; refusing to measure", file=sys.stderr)
        return EXIT_INPUTS

    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.install()
    run = workloads.Run(
        seed=args.seed,
        seconds=float(args.seconds),
        quick=args.quick,
        tracer=tracer,
        pins=pins,
        work_dir=RESULTS / ".work",
    )
    try:
        outcome = fn(run, loaded)
    finally:
        tracer.uninstall()

    declared = {m["name"]: m for m in bench["end_to_end"]}
    if set(outcome.metrics) != set(declared):
        raise KeyError(
            f"end-to-end metrics measured {sorted(outcome.metrics)} "
            f"but declared {sorted(declared)}"
        )
    tally = outcome.tally
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in declared.items():
        print(f"  {name:28s} {outcome.metrics[name]:14.6g} {m['unit']}")
    meets = {}
    for phase, lat in outcome.latency_ms.items():
        p50, p99 = stats.percentile(lat, 50), stats.percentile(lat, 99)
        line = f"  phase {phase:5s} n={len(lat):6d} p50 {p50:.3f} ms p99 {p99:.3f} ms"
        if outcome.info["open_phases"]:
            meets[phase] = p99 <= workloads.LATENCY_LIMIT_MS
            line += f"  limit {workloads.LATENCY_LIMIT_MS:g} ms: "
            line += "meets" if meets[phase] else "misses"
        print(line)
    print(f"  attempted {tally.attempted}  failed {tally.failed}  error_rate {tally.error_rate:.6g}")
    print(
        f"  host reference median {outcome.info['reference_ms']:.4f} ms; set-up and replay "
        f"times are scaled to its nominal {pins['host_reference_ms']} ms, closed-loop "
        f"calls to its numpy part's nominal {pins['host_reference_numpy_ms']} ms"
    )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reference_ms": outcome.info["reference_ms"],
        "end_to_end": {k: _finite(v) for k, v in outcome.metrics.items()},
        "meets_limit": meets,
        "latency_ms": {k: [_finite(v) for v in lat] for k, lat in outcome.latency_ms.items()},
    }
    reported, units = record["end_to_end"], {n: m["unit"] for n, m in declared.items()}
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, breakdown = layer_metrics(tracer, outcome.info, list(units))
        tracer.write_chrome_trace(RESULTS / args.set / f"{args.workload}.trace.json")
        for name, v in values.items():
            shown = "null (not traced)" if v is None else f"{v:14.6g} {units[name]}"
            print(f"  {name:34s} {shown}")
        for phase, b in breakdown.items():
            parts = ", ".join(f"{k} {v:.4f}" for k, v in b["self_s"].items())
            print(f"  self time in {phase} ({b['wall_s']:.4f} s wall): {parts}")
        reported = record["per_layer"] = {k: _finite(v) for k, v in values.items()}
        record["breakdown"] = breakdown
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record))

    correct = tally.failed == 0 and all(v is not None for v in record["end_to_end"].values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
            }
        )
    )
    return 0 if correct else EXIT_FAILED


# ----------------------------------------------------------------------
# A set of runs
# ----------------------------------------------------------------------
def _child(args, root: Path, workload: str, seed: int, trace: int, record: Path) -> dict:
    """One run by the benchmark of the checkout at ``root``."""
    cmd = [
        sys.executable,
        str(root / HERE.relative_to(ROOT) / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--set", args.name,
        "--record", str(record),
    ]
    if args.quick:
        cmd.append("--quick")
    print(f"run {workload} seed {seed} trace {trace} in {root}", flush=True)
    record.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "ok": False, "reason": "timeout"}
    if proc.returncode == EXIT_INPUTS:
        sys.stderr.write(proc.stderr)
        sys.exit(EXIT_INPUTS)
    if proc.returncode not in (0, EXIT_FAILED) or not record.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        return {"workload": workload, "seed": seed, "ok": False, "reason": f"exit {proc.returncode}"}
    rec = json.loads(record.read_text())
    rec["ok"] = proc.returncode == 0
    return rec


def summarize(bench: dict, runs: dict, traced: dict) -> dict:
    """Per workload: each end-to-end metric's values, quartiles and
    spread over the untraced runs; latency percentiles pooled over all
    of them; the tally; and the traced run's per-layer metrics."""
    out = {}
    for workload, recs in runs.items():
        good = [r for r in recs if r.get("ok")]
        entry = {
            "runs": len(recs),
            "runs_failed": len(recs) - len(good),
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r.get("attempted", 0) for r in recs),
            "failed": sum(r.get("failed", 0) for r in recs),
            "end_to_end": {},
            "pooled_latency_ms": {},
        }
        entry["error_rate"] = entry["failed"] / max(1, entry["attempted"])
        if any("ran_first" in r for r in recs):
            entry["ran_first"] = [r.get("ran_first") for r in recs]
        for m in bench["end_to_end"]:
            measured = [(r["seed"], r["end_to_end"].get(m["name"])) for r in good]
            measured = [(s, v) for s, v in measured if v is not None]
            if not measured:
                continue
            values = [v for _, v in measured]
            q1, med, q3 = stats.quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": stats.spread(values),
                "values": values,
                "seeds": [s for s, _ in measured],
            }
        phases = sorted({p for r in good for p in r["latency_ms"]})
        for phase in phases:
            pooled = [
                [stats.INF if v is None else v for v in r["latency_ms"][phase]] for r in good
            ]
            p99 = stats.pooled_percentile(pooled, 99)
            entry["pooled_latency_ms"][phase] = {
                "p50": _finite(stats.pooled_percentile(pooled, 50)),
                "p99": _finite(p99),
                "n": sum(len(p) for p in pooled),
            }
            if good[0]["meets_limit"]:  # open loops only
                entry["pooled_latency_ms"][phase]["meets_limit"] = (
                    p99 <= workloads.LATENCY_LIMIT_MS
                )
        t = traced.get(workload)
        if t and t.get("ok"):
            entry["per_layer"] = t["per_layer"]
            entry["breakdown"] = t["breakdown"]
            median_tp = entry["end_to_end"].get("throughput_sps", {}).get("median")
            traced_tp = t["end_to_end"].get("throughput_sps")
            if median_tp and traced_tp:
                entry["traced_throughput_vs_untraced"] = traced_tp / median_tp
        out[workload] = entry
    return out


def run_set(args) -> int:
    """Run a set; with ``--parent``, a paired set of both checkouts."""
    bench = load_benchmark()
    args.seconds = args.seconds or bench["run_seconds"]
    seed = inputs.load_pins()["seed"]
    names = [w["name"] for w in bench["workloads"]]
    out = RESULTS / args.name
    sides = {"change": (ROOT, out)}
    if args.parent:
        sides["parent"] = (Path(args.parent).resolve(), out / "parent")
    turns = 0

    def each_side(workload, seed_, trace, stem) -> dict:
        """The run on every side, back to back, alternating who goes first."""
        nonlocal turns
        order = list(sides)[:: -1 if turns % 2 else 1]
        turns += 1
        recs = {}
        for side in order:
            root, side_out = sides[side]
            recs[side] = _child(args, root, workload, seed_, trace, side_out / f"{workload}.{stem}.json")
            if len(sides) > 1:
                recs[side]["ran_first"] = side == order[0]
        return recs

    runs = {side: {w: [] for w in names} for side in sides}
    traced = {side: {} for side in sides}
    for i in range(args.runs):
        for w in names:
            for side, rec in each_side(w, seed + i, 0, i).items():
                runs[side][w].append(rec)
    for w in names:
        for side, rec in each_side(w, seed, 1, "traced").items():
            traced[side][w] = rec
    import numpy

    pair_id = f"{args.name}-{time.time_ns()}" if args.parent else None
    bad = False
    for side, (root, side_out) in sides.items():
        pins_path = root / inputs.PINS_PATH.relative_to(ROOT)
        summary = {
            "name": args.name if side == "change" else f"{args.name}/parent",
            "seconds": args.seconds,
            "inputs_sha256": hashlib.sha256(pins_path.read_bytes()).hexdigest(),
            "pair_id": pair_id,
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
            },
            "workloads": summarize(bench, runs[side], traced[side]),
        }
        side_out.mkdir(parents=True, exist_ok=True)
        (side_out / "set.json").write_text(json.dumps(summary, indent=1) + "\n")
        print(f"== {summary['name']} ({root})")
        print_set(bench, summary)
        bad |= any(
            e["runs_failed"] or e["failed"] or "per_layer" not in e
            for e in summary["workloads"].values()
        )
    return EXIT_FAILED if bad else 0


def print_set(bench: dict, summary: dict) -> None:
    for workload, e in summary["workloads"].items():
        print(f"{workload}: {e['runs']} runs, failed {e['failed']}/{e['attempted']}")
        for name, m in e["end_to_end"].items():
            print(
                f"  {name:28s} median {m['median']:12.6g} {m['unit']:9s} "
                f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.4f}"
            )
        for phase, p in e["pooled_latency_ms"].items():
            print(
                f"  pooled {phase:6s} n={p['n']:7d} p50 {p['p50']} ms p99 {p['p99']} ms "
                f"meets_limit {p.get('meets_limit', '-')}"
            )


def _load_set(ref: str) -> dict:
    """A set by path (directory or file) or by name under ``results/``:
    ``results/NAME/set.json``, or ``results/NAME.json`` as the committed
    ``seed`` set is."""
    path = Path(ref)
    if path.is_dir():
        path = path / "set.json"
    elif not path.exists():
        path = RESULTS / ref / "set.json"
        if not path.exists():
            path = RESULTS / f"{ref}.json"
    return json.loads(path.read_text())


def _pairs(pm: dict, cm: dict) -> list:
    """``(parent, change)`` values of the runs that share a seed."""
    by_seed = dict(zip(pm["seeds"], pm["values"]))
    return [(by_seed[s], v) for s, v in zip(cm["seeds"], cm["values"]) if s in by_seed]


def compare(args) -> int:
    bench = load_benchmark()
    parent, change = _load_set(args.parent), _load_set(args.change)
    if parent["inputs_sha256"] != change["inputs_sha256"]:
        print("error: the two sets ran on different pinned inputs; refusing to compare",
              file=sys.stderr)
        return EXIT_INPUTS
    paired = parent.get("pair_id") is not None and parent.get("pair_id") == change.get("pair_id")
    print("runs paired back to back: gain assessed" if paired else
          "sets measured apart (not one paired set): gain not assessed")
    regressed = False
    print(f"{'workload':20s} {'metric':26s} {'parent':>12s} {'change':>12s} {'delta':>8s} "
          f"{'bound':>6s}  verdict")
    for workload, p in parent["workloads"].items():
        c = change["workloads"].get(workload)
        if c is None:
            print(f"{workload:20s} missing from {args.change}")
            regressed = True
            continue
        for m in bench["end_to_end"]:
            pm, cm = p["end_to_end"].get(m["name"]), c["end_to_end"].get(m["name"])
            if pm is None or cm is None:
                print(f"{workload:20s} {m['name']:26s} not measured on both sides")
                continue
            v = stats.verdict(
                pm["values"], cm["values"], better=m["better"], bound=m["bound"],
                pairs=_pairs(pm, cm) if paired else None,
            )
            regressed |= v == "regressed"
            delta = (cm["median"] - pm["median"]) / pm["median"] if pm["median"] else 0.0
            print(
                f"{workload:20s} {m['name']:26s} {pm['median']:12.6g} {cm['median']:12.6g} "
                f"{delta:+8.2%} {m['bound']:6.3f}  {v}"
            )
        print(
            f"{workload:20s} failed operations: parent {p['failed']}/{p['attempted']}, "
            f"change {c['failed']}/{c['attempted']}"
        )
        regressed |= c["failed"] > p["failed"]
    return EXIT_FAILED if regressed else 0


def pin(_args) -> int:
    import_program()
    pins = inputs.pin(inputs.load_pins())
    inputs.PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {inputs.PINS_PATH}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("set", "compare", "pin"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "set":
            parser.add_argument("name")
            parser.add_argument("--runs", type=int, default=5)
            parser.add_argument("--seconds", type=int, default=None)
            parser.add_argument("--parent", help="a checkout of the parent commit to pair with")
            parser.add_argument("--quick", action="store_true")
            return run_set(parser.parse_args(argv[1:]))
        if argv[0] == "compare":
            parser.add_argument("parent")
            parser.add_argument("change")
            return compare(parser.parse_args(argv[1:]))
        return pin(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny set-up and forests (self-tests)")
    parser.add_argument("--set", default="latest", help="results/<set>/ receives traces")
    parser.add_argument("--record", help="also write the full run record here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())

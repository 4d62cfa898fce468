"""The four workloads.

Each workload function takes a :class:`Run` and the loaded inputs and
returns an :class:`Outcome`: the end-to-end metrics, the tally of
operations attempted and failed, each phase's latencies, and what a
traced run needs for its per-layer metrics.  The program is driven
through its public API only: ``NativeEngine``, ``TahoeEngine``,
``FILEngine``, ``TahoeServer.run(..., until=)`` with ``SchedulerConfig()``
defaults and ``backend="native"``, and ``pack_layout``/``load_packed``.

Every workload reports every end-to-end metric:

* ``setup_s`` — median over repeated cold set-ups in the run: from
  loaded inputs to an engine or server that has answered its first
  request of each kind.
* ``throughput_sps`` / ``capacity_rps`` — samples and requests (engine
  calls, for the closed loops) per wall second at the highest load.
* ``latency_p50_ms.*`` — per request from its due time to the return of
  the ``run()`` call that resolved it (serving), or per engine call
  (closed loops), at the ``low`` and ``high`` load.  Each phase's p99 is
  reported too (``Outcome.latency_ms``), but not gated: on a shared
  machine it measures other tenants more than the program.
* ``rss_growth_mb`` — resident memory at the end of the run
  (``offline-higgs``: after set-up and a fixed number of calls) minus
  before the first set-up.
* ``sim_speedup_vs_fil.*`` — simulated FIL time over simulated Tahoe time
  (figure 7's measure) on the workload's forests; deterministic.

The machine this was tuned on alternates between normal and ~1.45x
slower periods lasting seconds to minutes (other tenants).  So
measurement is split into rounds that alternate the phases, each phase
starting after a full garbage collection; rates are medians over many
short measurements; and compute-bound timings (set-ups, closed-loop
calls, replay bursts) are reported at nominal host speed
(``hostspeed``), with the reference computation sampled next to them.
"""

from __future__ import annotations

import ctypes
import gc
import os
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from hostspeed import HostSpeed
from stats import INF, percentile

clock = time.perf_counter

#: Open-loop phases must keep p99 at or under this limit.
LATENCY_LIMIT_MS = 10.0
#: Figure 7's low-parallelism regime: this many rows in batches of LOW_BATCH.
LOW_ROWS, LOW_BATCH = 600, 100
#: Rows per call of offline-higgs's ``high`` phase.
HIGH_BATCH = 4096
#: offline-higgs reads resident memory after two rounds of this many
#: calls per regime.
MEMORY_CALLS = {"low": 200, "high": 8}
#: Measurement rounds per run; each round runs every phase once.
ROUNDS = 4
#: Open loops wait this long past the last due time for stragglers.
DRAIN_S = 5.0
#: Closed loops time the host reference at most this often.
REFERENCE_EVERY_S = 0.02
#: Explain requests draw from the first rows of the pool only, which
#: bounds the cost of the prep-time reference.
EXPLAIN_POOL = 512
QUICK_FORESTS = ("HOCK", "ijcnn1", "phishing")

try:  # glibc keeps freed heap resident until trimmed
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None


@dataclass
class Run:
    seed: int
    seconds: float
    quick: bool
    tracer: object
    pins: dict
    work_dir: Path
    setup_phases: list = field(default_factory=list)
    run_phases: list = field(default_factory=list)
    speed: HostSpeed = field(init=False)

    def __post_init__(self) -> None:
        self.speed = HostSpeed(
            self.pins["host_reference_ms"], self.pins["host_reference_numpy_ms"]
        )

    def reference(self, n: int = 1) -> None:
        """Time the host reference ``n`` times (the load generator's work)."""
        with self.tracer.span("loadgen.reference"):
            self.speed.sample(n)

    def setup_reps(self, full: int = 5) -> int:
        return 1 if self.quick else full

    @property
    def rounds(self) -> int:
        return 1 if self.quick else ROUNDS

    def phase(self, name: str):
        """A measured phase: collected garbage first, traced as ``name``."""
        gc.collect()
        self.run_phases.append(name)
        return self.tracer.phase(name)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # errors, refusals, missing responses and wrong outputs

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    metrics: dict
    tally: Tally
    latency_ms: dict  # phase -> latencies, inf for failures
    info: dict  # what layers.layer_metrics needs


def rss_mb() -> float:
    """Resident memory after a full collection, with freed heap handed
    back to the system, so only live memory is counted."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _report_failure(what: str) -> None:
    print(f"error: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def timed_setups(run: Run, prepare, build, reps: int, pick=None):
    """Build ``reps`` times from cold; return a build and the median
    set-up seconds at nominal host speed, with the host reference timed
    on both sides of each build.  ``prepare`` (untimed) makes fresh
    inputs.

    The build returned is the last one, or with ``pick`` the one whose
    ``pick(build)`` is the median: the flush point a server plans is
    measured, so it varies between builds, and the run should measure a
    typical server rather than whichever came last.
    """
    from repro.perfmodel import microbench

    times = []
    kept = []
    built = None
    for rep in range(reps):
        built = None
        phase = f"setup{rep}"
        run.setup_phases.append(phase)
        # The hardware microbenchmarks are cached per process; a set-up
        # in a fresh process pays for them, so each repetition does too.
        clear = getattr(microbench.measure_hardware_parameters, "cache_clear", None)
        if clear is not None:
            clear()
        fresh = prepare()
        gc.collect()
        run.reference(5)
        with run.tracer.phase(phase):
            t0 = clock()
            built = build(fresh)
            t1 = clock()
        run.reference(5)
        times.append((t1 - t0) * run.speed.scale(t0, t1))
        if pick is not None:
            kept.append(built)
    if pick is not None:
        built = sorted(kept, key=pick)[(len(kept) - 1) // 2]
    return built, statistics.median(times)


def _metrics(setup_s, rate_rows, rate_calls, latency_ms, sim, rss_growth) -> dict:
    out = {
        "setup_s": setup_s,
        "throughput_sps": rate_rows,
        "capacity_rps": rate_calls,
        "rss_growth_mb": rss_growth,
        "sim_speedup_vs_fil.high": sim.speedup("high"),
        "sim_speedup_vs_fil.low": sim.speedup("low"),
    }
    for phase in ("low", "high"):
        out[f"latency_p50_ms.{phase}"] = percentile(latency_ms[phase], 50)
    return out


def _info(run: Run, sim, **extra) -> dict:
    info = {
        "setup_phases": list(run.setup_phases),
        "run_phases": list(run.run_phases),
        "open_phases": {},
        "requests": 0,
        "target_batch": None,
        "traffic": sim.traffic_metrics(),
        "reference_ms": run.speed.median_ms(),
    }
    info.update(extra)
    return info


# ----------------------------------------------------------------------
# The simulated GPU: figure 7's Tahoe-over-FIL measurement
# ----------------------------------------------------------------------
class Simulation:
    """Figure 7 on a set of forests: each call's wall time, the simulated
    speedups and the forest-read traffic of each engine.

    ``sample()``, if given, times the host reference after each call.
    """

    def __init__(self, sample=None) -> None:
        self.sample = sample
        # (forest, regime, engine) -> (start, end) of each call, None if failed
        self.calls: dict[tuple, list] = {}
        self.rows: dict[tuple, int] = {}
        self.sim: dict[str, list[tuple[float, float]]] = {"high": [], "low": []}
        self.traffic = {"core.engine": [0, 0, 0], "core.fil": [0, 0, 0]}

    def forest(self, name, tahoe, fil, X, reference, tally: Tally):
        """FIL then Tahoe on the whole split as one batch (``high``), then
        on LOW_ROWS rows in batches of LOW_BATCH (``low``).  The first
        call of a forest records its simulated times and traffic.  A call
        whose predictions differ from ``reference`` counts as failed, so
        the ``reference`` returned is also what TahoeEngine predicted.

        Tahoe measures its layout's coalescing rate on the first batch it
        sees, so the call order is fixed: changing it changes the
        simulated times.
        """
        first = (name, "high", "core.engine") not in self.calls
        for regime, Xr, batch in (("high", X, None), ("low", X[:LOW_ROWS], LOW_BATCH)):
            want = reference[: Xr.shape[0]]
            sim = []
            for label, engine in (("core.fil", fil), ("core.engine", tahoe)):
                t0 = clock()
                try:
                    result = engine.predict(Xr, batch_size=batch)
                    ok = np.array_equal(result.predictions, want)
                except Exception:
                    _report_failure(f"{label} predict")
                    result, ok = None, False
                t1 = clock()
                if self.sample is not None:
                    self.sample()
                tally.add(ok)
                key = (name, regime, label)
                self.calls.setdefault(key, []).append((t0, t1) if ok else None)
                self.rows[key] = Xr.shape[0]
                sim.append(result.total_time if ok else INF)
                if first and ok:
                    counts = self.traffic[label]
                    for b in result.batches:
                        fg = b.counters.forest_global
                        counts[0] += fg.transactions
                        counts[1] += fg.requested_bytes
                        counts[2] += fg.fetched_bytes
            if first:
                self.sim[regime].append(tuple(sim))
        return reference

    def speedup(self, regime: str) -> float:
        """Geometric mean over forests of FIL time / Tahoe time."""
        ratios = [fil / tahoe for fil, tahoe in self.sim[regime]]
        return float(np.exp(np.mean(np.log(ratios))))

    def traffic_metrics(self) -> dict:
        out = {}
        for label, (transactions, requested, fetched) in self.traffic.items():
            out[f"{label}.forest_transactions"] = transactions
            out[f"{label}.forest_coalescing"] = requested / fetched if fetched else 0.0
        return out

    def typical_ms(self, speed: HostSpeed) -> dict:
        """Each call's median wall time over its repetitions, at nominal
        host speed."""
        return {
            key: percentile(
                [INF if c is None else (c[1] - c[0]) * 1e3 * speed.scale(*c) for c in calls], 50
            )
            for key, calls in self.calls.items()
        }


def _engines(forest, spec):
    from repro.core import FILEngine, TahoeEngine

    return TahoeEngine(forest, spec), FILEngine(forest, spec)


def prep_reference(forest, pool, spec, tally: Tally, before=None):
    """Prep for a native workload: the simulated speedup on its forest
    and the TahoeEngine predictions native outputs must equal.

    ``before(tahoe)`` sees the freshly converted engine before any
    prediction adds to its layout.
    """
    tahoe, fil = _engines(forest, spec)
    if before is not None:
        before(tahoe)
    sim = Simulation()
    reference = sim.forest("", tahoe, fil, pool, forest.predict(pool), tally)
    return reference, sim, tahoe


# ----------------------------------------------------------------------
# offline-higgs: closed loop on NativeEngine.predict
# ----------------------------------------------------------------------
def offline_higgs(run: Run, loaded: dict) -> Outcome:
    from repro.core import NativeEngine

    payload, pool = loaded["Higgs"]
    spec = inputs.make_spec(run.pins)
    tally = Tally()
    with run.tracer.phase("prep"):
        reference, sim, _ = prep_reference(inputs.build_forest(payload), pool, spec, tally)
    rng = np.random.default_rng([run.seed, 1])
    batches = {}
    for regime, size in (("low", LOW_BATCH), ("high", HIGH_BATCH)):
        rows = [np.resize(rng.permutation(pool.shape[0]), size) for _ in range(8)]
        batches[regime] = [(pool[r], reference[r]) for r in rows]

    def build(forest):
        engine = NativeEngine(forest, spec)
        engine.predict(pool[:1])  # the cost model calibrates on first use
        return engine

    rss0 = rss_mb()
    engine, setup_s = timed_setups(
        run, lambda: inputs.build_forest(payload), build, run.setup_reps()
    )
    with run.tracer.phase("warmup"):
        for regime in batches:
            engine.predict(batches[regime][0][0])  # the first call at a size ranks it
        # Resident memory is read after a fixed number of calls, not after
        # the timed rounds: their call count follows the host's speed, and
        # the heap grows with it (by about 1 MB per 800 calls).
        for _ in range(1 if run.quick else 2):
            for regime, n in MEMORY_CALLS.items():
                for k in range(1 if run.quick else n):
                    X, want = batches[regime][k % len(batches[regime])]
                    tally.add(_correct(_predict(engine, X), want))
    rss_growth = rss_mb() - rss0
    latency_ms = {"low": [], "high": []}
    for r in range(run.rounds):
        for regime, share in (("low", 0.3), ("high", 0.7)):
            with run.phase(f"{regime}{r}"):
                latency_ms[regime] += _closed_loop(
                    run, engine, batches[regime], share * run.seconds / run.rounds, tally
                )
    typical = percentile(latency_ms["high"], 50) / 1e3
    metrics = _metrics(setup_s, HIGH_BATCH / typical, 1 / typical, latency_ms, sim, rss_growth)
    return Outcome(metrics, tally, latency_ms, _info(run, sim))


def _predict(engine, X):
    """One ``NativeEngine.predict`` call; its predictions, None if it failed."""
    try:
        return engine.predict(X).predictions
    except Exception:
        _report_failure("NativeEngine.predict")
        return None


def _correct(out, want) -> bool:
    return out is not None and np.array_equal(out, want)


def _closed_loop(run: Run, engine, batches, duration: float, tally: Tally) -> list:
    """One caller, back to back, for ``duration`` seconds, timing the host
    reference between calls; per-call ms at nominal host speed, by the
    reference's numpy part, as the calls are all numpy."""
    calls = []
    t_end = clock() + duration
    next_reference = 0.0
    k = 0
    while True:
        X, want = batches[k % len(batches)]
        k += 1
        t0 = clock()
        out = _predict(engine, X)
        t1 = clock()
        ok = _correct(out, want)
        tally.add(ok)
        calls.append((t0, t1, ok))
        if t1 >= next_reference:
            run.reference()
            next_reference = clock() + REFERENCE_EVERY_S
        if t1 >= t_end:
            break
    return [
        (t1 - t0) * 1e3 * run.speed.scale(t0, t1, "numpy") if ok else INF
        for t0, t1, ok in calls
    ]


# ----------------------------------------------------------------------
# serve-*: open-loop Poisson arrivals into TahoeServer
# ----------------------------------------------------------------------
class Checker:
    """Compares responses with the prep-time references."""

    def __init__(self, predictions, attributions=None, margins=None) -> None:
        self.predictions = predictions
        self.attributions = attributions
        self.margins = margins

    def __call__(self, resp, kind: str, idx) -> bool:
        if resp is None or not resp.ok:
            return False
        if kind == "predict":
            return np.array_equal(resp.predictions, self.predictions[idx])
        # Explain: the reference attributions, and efficiency — base
        # value plus attributions reconstruct the reference margin.
        attrs = np.asarray(resp.attributions)
        recon = resp.base_values + attrs.sum(axis=1)
        return bool(
            np.allclose(attrs, self.attributions[idx], rtol=1e-9, atol=1e-12)
            and np.allclose(recon, self.margins[idx], rtol=1e-9, atol=1e-12)
            and np.allclose(resp.predictions, self.margins[idx], rtol=1e-9, atol=1e-12)
        )


def poisson_offsets(rng, rate: float, duration: float) -> np.ndarray:
    n = int(rate * duration * 1.3) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    return offsets[offsets < duration]


def _collect(result, first_id: int, responses: list, tally: Tally) -> list[int]:
    """File each response under its request's position; a response to an
    unknown or already answered request is an error of its own.
    Returns the positions filed."""
    filed = []
    for resp in result.responses:
        k = resp.request_id - first_id
        if not 0 <= k < len(responses) or responses[k] is not None:
            tally.add(False)
            continue
        responses[k] = resp
        filed.append(k)
    return filed


def _check(draws, responses, check, tally: Tally) -> np.ndarray:
    """Check every response against the reference; mask of correct ones."""
    ok = np.array([check(resp, kind, idx) for resp, (kind, idx) in zip(responses, draws)], bool)
    for good in ok:
        tally.add(bool(good))
    return ok


def open_loop(server, pool, draws, offsets, first_id, origin, tracer, tally, check):
    """Send each request at its due time; wake at the next due time or at
    the next max-wait flush.  Requests are built as they are sent, so
    the generator holds no backlog of request objects.

    Returns per-request latencies (ms, inf unless served correctly) and
    the log the per-layer queue-wait mapping needs.  The program is
    called outside the load generator's own spans.
    """
    from repro.serving import InferenceRequest

    n = len(draws)
    start = clock() - origin + 0.005
    due = start + np.asarray(offsets)
    max_wait = server.config.max_wait
    responses = [None] * n
    done = np.full(n, INF)
    sent = np.zeros(n)
    pending = deque()
    i = 0
    hard_stop = (due[-1] if n else start) + DRAIN_S
    while True:
        with tracer.span("loadgen.send"):
            now = clock() - origin
            batch = []
            while i < n and due[i] <= now:
                kind, idx = draws[i]
                batch.append(InferenceRequest(first_id + i, pool[idx], due[i], kind=kind))
                sent[i] = now
                pending.append(i)
                i += 1
        result = server.run(batch, until=now)
        returned = clock() - origin
        with tracer.span("loadgen.collect"):
            for k in _collect(result, first_id, responses, tally):
                done[k] = returned
            while pending and responses[pending[0]] is not None:
                pending.popleft()
            wake = min(
                due[i] if i < n else INF,
                due[pending[0]] + max_wait if pending else INF,
            )
        if (i >= n and not pending) or returned > hard_stop:
            break
        tracer.idle_until(origin + wake)
    with tracer.span("loadgen.check"):
        ok = _check(draws, responses, check, tally)
        reached = np.array([r is not None and r.ok for r in responses], dtype=bool)
        log = {
            "due": origin + due[reached],
            "rows": np.array([len(idx) for _, idx in draws])[reached],
            "late": (sent - due)[reached],
        }
    return np.where(ok, (done - due) * 1e3, INF), log


def replay(server, pool, draws, rate, first_id, origin, run: Run, tally, check):
    """A scripted burst through one ``run()`` call; returns
    ``(seconds at nominal host speed, rows served correctly)``."""
    from repro.serving import InferenceRequest

    with run.tracer.span("loadgen.send"):
        start = clock() - origin
        reqs = [
            InferenceRequest(first_id + k, pool[idx], start + k / rate, kind=kind)
            for k, (kind, idx) in enumerate(draws)
        ]
    run.reference(5)
    t0 = clock()
    result = server.run(reqs)
    t1 = clock()
    run.reference(5)
    with run.tracer.span("loadgen.check"):
        responses = [None] * len(draws)
        _collect(result, first_id, responses, tally)
        ok = _check(draws, responses, check, tally)
    seconds = (t1 - t0) * run.speed.scale(t0, t1)
    return seconds, sum(len(idx) for (_, idx), good in zip(draws, ok) if good)


def _serve(run: Run, loaded, forest_name, rates, replay_rate, replay_n, draw, packed) -> Outcome:
    """Shared load generator of the two serving workloads: set-up, then rounds of
    the ``low`` and ``high`` open-loop phases and a ``replay`` burst.
    Throughput and capacity are medians over the bursts, which are spread
    over the run so that no one slow period covers them all.
    """
    from repro.core.config import TahoeConfig
    from repro.modelstore import artifact
    from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer

    payload, pool = loaded[forest_name]
    spec = inputs.make_spec(run.pins)
    tally = Tally()
    path = run.work_dir / f"{forest_name}.tahoe"
    forest = inputs.build_forest(payload)

    def pack(tahoe):
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact.pack_layout(
            tahoe.layout,
            path,
            engine="tahoe",
            spec_name=spec.name,
            conversion_key=TahoeConfig().conversion_key(),
            source_fingerprint=forest.fingerprint(),
        )

    with run.tracer.phase("prep"):
        reference, sim, tahoe = prep_reference(
            forest, pool, spec, tally, pack if packed else None
        )
        check = Checker(reference)
        if packed:
            explained = tahoe.explain(pool[:EXPLAIN_POOL])
            check = Checker(reference, explained.attributions, explained.predictions)
        del tahoe
    origin = clock()
    warm_kinds = ("predict", "explain") if packed else ("predict",)

    def build(forest):
        scheduler = SchedulerConfig(backend="native")
        if packed:
            server = TahoeServer(
                packed=artifact.load_packed(path), spec=spec, scheduler=scheduler
            )
        else:
            server = TahoeServer(forest, spec, scheduler=scheduler)
        for k, kind in enumerate(warm_kinds):
            server.run([InferenceRequest(-1 - k, pool[:1], clock() - origin, kind=kind)])
        return server

    rng = np.random.default_rng([run.seed, 2 if packed else 3])
    rss0 = rss_mb()
    server, setup_s = timed_setups(
        run,
        (lambda: None) if packed else (lambda: inputs.build_forest(payload)),
        build,
        run.setup_reps(),
        pick=lambda server: server.target_batch,
    )
    next_id = 0
    latency_ms = {"low": [], "high": []}
    open_phases = {}
    n_chunk = max(1, replay_n // (2 * run.rounds) // (20 if run.quick else 1))
    rates_rows, rates_reqs = [], []
    for r in range(run.rounds):
        for regime, rate in rates:
            offsets = poisson_offsets(rng, rate, 0.4 * run.seconds / run.rounds)
            draws = draw(rng, len(offsets))
            phase = f"{regime}{r}"
            with run.phase(phase):
                latency, open_phases[phase] = open_loop(
                    server, pool, draws, offsets, next_id, origin, run.tracer, tally, check
                )
            latency_ms[regime] = np.concatenate([latency_ms[regime], latency])
            next_id += len(draws)
            draws = draw(rng, n_chunk)
            with run.phase(f"replay{r}{regime}"):
                wall, rows = replay(
                    server, pool, draws, replay_rate, next_id, origin, run, tally, check
                )
            next_id += n_chunk
            rates_rows.append(rows / wall)
            rates_reqs.append(n_chunk / wall)
    metrics = _metrics(
        setup_s,
        statistics.median(rates_rows),
        statistics.median(rates_reqs),
        latency_ms,
        sim,
        rss_mb() - rss0,
    )
    info = _info(
        run,
        sim,
        open_phases=open_phases,
        requests=next_id,
        target_batch=server.target_batch,
    )
    return Outcome(metrics, tally, latency_ms, info)


def serve_letter_single(run: Run, loaded: dict) -> Outcome:
    n_pool = loaded["letter"][1].shape[0]

    def draw(rng, n):
        rows = rng.integers(0, n_pool, n)
        return [("predict", rows[j : j + 1]) for j in range(n)]

    return _serve(
        run, loaded, "letter", (("low", 500.0), ("high", 2000.0)), 50_000.0, 100_000, draw,
        packed=False,
    )


def serve_covtype_mixed(run: Run, loaded: dict) -> Outcome:
    n_pool = loaded["covtype"][1].shape[0]

    def draw(rng, n):
        # Exact shares, shuffled: every phase has the same mix of kinds
        # and sizes, so the seed moves only the order and the rows.
        n_explain = round(0.05 * n)
        sizes = np.concatenate(
            [np.resize(np.arange(1, 5), n_explain), np.resize(np.arange(1, 17), n - n_explain)]
        )
        order = rng.permutation(n)
        return [
            ("explain", rng.integers(0, EXPLAIN_POOL, sizes[j]))
            if j < n_explain
            else ("predict", rng.integers(0, n_pool, sizes[j]))
            for j in order
        ]

    return _serve(
        run, loaded, "covtype", (("low", 100.0), ("high", 500.0)), 5_000.0, 20_000, draw,
        packed=True,
    )


# ----------------------------------------------------------------------
# simulate-fig5: TahoeEngine and FILEngine on all fifteen forests
# ----------------------------------------------------------------------
def simulate_fig5(run: Run, loaded: dict) -> Outcome:
    """Passes over every forest in the pinned order until time is up.

    The inputs are pinned entirely and the seed is not used: the
    simulated speedup is the same on every run, and a change to the
    forest order would change how memory is reused between runs.
    """
    spec = inputs.make_spec(run.pins)
    tally = Tally()
    with run.tracer.phase("prep"):
        references = {n: inputs.build_forest(p).predict(X) for n, (p, X) in loaded.items()}

    def build(forests):
        return {n: _engines(f, spec) for n, f in forests.items()}

    rss0 = rss_mb()
    engines, setup_s = timed_setups(
        run,
        lambda: {n: inputs.build_forest(p) for n, (p, _) in loaded.items()},
        build,
        run.setup_reps(3),
    )
    sim = Simulation(sample=run.reference)
    t_end = clock() + run.seconds
    passes = 0
    while passes == 0 or clock() < t_end:
        with run.phase(f"pass{passes}"):
            for name, (tahoe, fil) in engines.items():
                sim.forest(name, tahoe, fil, loaded[name][1], references[name], tally)
                if passes and clock() >= t_end:
                    break
        passes += 1
    typical = sim.typical_ms(run.speed)
    latency_ms = {
        regime: [ms for (_, r, _), ms in typical.items() if r == regime]
        for regime in ("high", "low")
    }
    total_s = sum(typical.values()) / 1e3
    metrics = _metrics(
        setup_s,
        sum(sim.rows.values()) / total_s,
        len(typical) / total_s,
        latency_ms,
        sim,
        rss_mb() - rss0,
    )
    return Outcome(metrics, tally, latency_ms, _info(run, sim))


WORKLOADS = {
    "offline-higgs": (offline_higgs, ("Higgs",)),
    "serve-letter-single": (serve_letter_single, ("letter",)),
    "serve-covtype-mixed": (serve_covtype_mixed, ("covtype",)),
    "simulate-fig5": (simulate_fig5, None),  # None: every pinned forest
}

"""Hot-swapping a model under live traffic, via the model store.

The deployment story :mod:`repro.modelstore` exists for: a server is
taking Poisson traffic on model v1 when a retrained v2 lands.  The new
version is packed offline into a ``.tahoe`` artifact (the converted
layout itself — loading it needs zero conversion work), staged into a
replacement engine pool off the hot path, and swapped in between
micro-batches.  No request is dropped; responses are tagged with the
version that served them.

Run::

    PYTHONPATH=src python examples/hot_swap_serving.py
"""

import tempfile
from pathlib import Path

from repro import GPU_SPECS
from repro.modelstore import load_packed, pack_forest
from repro.serving import SchedulerConfig, TahoeServer, poisson_workload
from repro.trees import train_forest_for_spec


def main() -> None:
    spec = GPU_SPECS["P100"]

    # v1: the model currently in production.
    v1 = train_forest_for_spec("letter", scale=0.05, tree_scale=0.05, seed=0)
    forest_v1, X_pool = v1.forest, v1.split.test.X
    # v2: a retrain (more data, different seed), packed offline exactly as
    # a model-build pipeline would: `repro pack` / pack_forest runs the
    # conversion once and persists the finished layout.
    forest_v2 = train_forest_for_spec(
        "letter", scale=0.06, tree_scale=0.05, seed=1
    ).forest
    with tempfile.TemporaryDirectory(prefix="tahoe-hotswap-") as work:
        artifact = pack_forest(forest_v2, spec, Path(work) / "letter_v2.tahoe").path
        print(f"packed v2 -> {artifact.name} ({artifact.stat().st_size} bytes)")
        packed_v2 = load_packed(artifact)

    server = TahoeServer(
        forest_v1, spec, scheduler=SchedulerConfig(n_engines=2, max_wait=2e-3)
    )
    print(f"serving {server.active_version.label}")

    # Stage the packed artifact: engines are built *now*, off the request
    # path, with zero conversion (the layout is adopted as packed), and
    # the swap is armed for t=0.5s of simulated traffic.
    staged = server.stage(packed=packed_v2)
    server.schedule_swap(staged.version, at_time=0.5)
    print(f"staged {staged.label} (conversion-free) — swap armed for t=0.5s")

    # One second of Poisson traffic straddling the swap instant.
    requests = poisson_workload(X_pool, qps=1200, duration=1.0, seed=7)
    result = server.run(requests)
    # The swap moved the staged pool in as built: no replica converted.
    for engine in server.engines:
        assert engine.conversion_stats.source == "artifact"

    s = result.summary
    served = s["model"]["served_by_version"]
    event = s["model"]["swap_events"][0]
    print(
        f"\n{s['completed']}/{s['requests']} requests ok across the swap "
        f"(zero dropped), {s['batches']} micro-batches"
    )
    print(
        f"swap {event['from_label']} -> {event['to_label']} "
        f"at t={event['time']:.3f}s"
    )
    for label, count in sorted(served.items()):
        print(f"  {label}: {count} requests")
    # The server now holds only v2's pool; v1's layout was released at
    # the swap, once its last dispatched batch was done.
    conv = s["conversion"]
    print(f"active layout: {conv['source']} ({conv['total_s'] * 1e3:.2f} ms conversion)")


if __name__ == "__main__":
    main()

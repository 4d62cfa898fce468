"""Serving demo: micro-batching, deadlines, backpressure, one shared layout.

Trains a small letter random forest, stands up a :class:`TahoeServer`
with two engine replicas on a simulated P100, and pushes an open-loop
Poisson workload through it — then shows what the serving layer adds on
top of plain ``predict(X)``:

* the §6 performance models choose the micro-batch flush point,
* the second replica adopts the first one's converted layout
  (conversion runs once, as a multi-GPU deployment should),
* per-request deadlines and a bounded queue turn overload into
  structured rejections instead of exceptions,
* latency quantiles / batch histograms flow through the usual
  observability stack.

Run::

    PYTHONPATH=src python examples/serving_demo.py
"""

import numpy as np

from repro import GPU_SPECS
from repro.serving import (
    InferenceRequest,
    SchedulerConfig,
    TahoeServer,
    poisson_workload,
)
from repro.trees import train_forest_for_spec


def main() -> None:
    spec = GPU_SPECS["P100"]
    workload = train_forest_for_spec("letter", scale=0.05, tree_scale=0.05, seed=0)
    forest, X_pool = workload.forest, workload.split.test.X

    # --- one server, two replicas, one conversion -------------------------
    server = TahoeServer(
        forest,
        spec,
        scheduler=SchedulerConfig(n_engines=2, max_wait=2e-3, max_queue=256),
    )
    print(f"model-chosen flush point: {server.target_batch} samples")
    for g, engine in enumerate(server.engines):
        stats = engine.conversion_stats
        how = "full conversion" if stats.source == "pipeline" else "adopted replica 0's layout"
        print(f"  replica {g}: {how} ({stats.total * 1e3:.2f} ms)")

    # --- healthy open-loop traffic ---------------------------------------
    requests = poisson_workload(
        X_pool, qps=1500, duration=1.0, seed=7, deadline=0.05
    )
    result = server.run(requests, report=True)
    s = result.summary
    lat = s["latency_s"]
    print(
        f"\nhealthy load: {s['completed']}/{s['requests']} ok, "
        f"{s['achieved_qps']:.0f} qps achieved, "
        f"p50 {lat['p50'] * 1e3:.2f} ms / p99 {lat['p99'] * 1e3:.2f} ms "
        f"over {s['batches']} micro-batches"
    )

    # spot-check a response against the reference forest
    ok = next(r for r in result.responses if r.ok)
    np.testing.assert_allclose(
        ok.predictions, forest.predict(requests[ok.request_id].X), rtol=1e-5
    )

    # --- overload: the bounded queue pushes back -------------------------
    # A second server owns its own layout, so it converts the forest again
    # (a packed .tahoe artifact is what lets a new server skip that).
    crowded = TahoeServer(
        forest,
        spec,
        scheduler=SchedulerConfig(
            n_engines=1, max_queue=8, target_batch=10_000, max_wait=10.0
        ),
    )
    burst = [
        InferenceRequest(request_id=i, X=X_pool[i % len(X_pool)], arrival_time=1e-9 * i)
        for i in range(40)
    ]
    overload = crowded.run(burst)
    rej = [r for r in overload.responses if not r.ok]
    print(
        f"\noverload burst: {overload.summary['completed']} served, "
        f"{len(rej)} rejected with code "
        f"{rej[0].error.code!r} — no exceptions, just structured errors"
    )
    conversions = [
        int(srv.metrics().counter("conversions_total").value) for srv in (server, crowded)
    ]
    print(f"conversions per server (2 replicas, then 1): {conversions}")


if __name__ == "__main__":
    main()

"""The arithmetic behind the reported numbers.

Kept free of ``repro`` imports so the self-tests and ``run.py compare``
work without the program under test.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

INF = float("inf")


def percentile(values, q: float) -> float:
    """Harrell–Davis estimate of the ``q``-th percentile.

    A weighted mean of all order statistics, with the weights of the
    ``q``-th order statistic's sampling distribution (here its normal
    approximation).  It moves smoothly as samples change, where the
    sample percentile jumps between neighbours: that matters for
    ``simulate-fig5``'s 30 calls of uneven cost; for thousands of samples
    the two agree.  Failed, refused and missing requests carry an
    infinite latency, so a percentile that weighs one of them is
    infinite.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        raise ValueError("percentile of no values")
    p = q / 100.0
    if n == 1 or p <= 0.0 or p >= 1.0:
        return float(v[0] if p <= 0.0 else v[-1])
    u = (np.arange(1, n + 1) - 0.5) / n
    w = np.exp(-0.5 * ((u - p) / math.sqrt(p * (1 - p) / (n + 2))) ** 2)
    w /= w.sum()
    finite = np.isfinite(v)
    if w[~finite].sum() > 1e-6:
        return INF
    return float(np.dot(w[finite], v[finite]) / w[finite].sum())


def pooled_percentile(runs, q: float) -> float:
    """Percentile over the requests of every run in a set, pooled."""
    return percentile(np.concatenate([np.asarray(r, dtype=np.float64) for r in runs]), q)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fifo_queue_waits(due, rows, call_start, call_rows) -> np.ndarray:
    """Queue wait of each request: from its due time to the start of the
    engine call that served it.

    The server coalesces whole requests in arrival order, so engine calls
    take requests first in, first out, and a call of ``n`` rows holds the
    next requests whose row counts sum to ``n``.  Requests no call took
    wait forever.

    Raises:
        ValueError: a call's rows end inside a request.
    """
    waits = np.full(len(due), INF)
    i = 0
    for start, n in zip(call_start, call_rows):
        taken = 0
        while taken < n:
            if i >= len(due):
                raise ValueError("engine calls hold more rows than were requested")
            waits[i] = start - due[i]
            taken += rows[i]
            i += 1
        if taken != n:
            raise ValueError(f"an engine call of {n} rows splits a request")
    return waits


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else INF


def verdict(parent, change, *, better: str, bound: float, pairs=None) -> str:
    """``regressed``, ``ok``, ``unresolved`` or ``gain`` for one metric.

    A metric is unresolved when either side's spread exceeds its bound,
    unless every run of the change beats every run of the parent.
    ``pairs`` are ``(parent, change)`` values of runs made back to back,
    alternating which side ran first; only with at least ten of them can
    a metric be a gain: the change must win nine tenths of the pairs
    (ties count for neither) and the medians differ by more than the
    parent's interquartile range.  Sets measured apart in time have no
    pairs, since a quieter period alone could win them.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    pairs = list(pairs or ())
    if len(pairs) >= 10:
        wins = sum(sign * c > sign * p for p, c in pairs)
        if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
            return "gain"
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "ok"

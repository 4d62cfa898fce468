"""The host's speed, measured by a fixed reference computation.

The machine this benchmark was tuned on is shared.  Other tenants slow
it by up to ~1.45x for seconds to minutes, so a whole 20 s run can land
in a slow period, and no median within the run undoes that.  So
compute-bound timings are reported at a nominal host speed instead: each
one is scaled by the nominal time of a reference computation over the
reference's median time in a window around the measurement.  The
reference is numpy gathers and compares shaped like a batched tree walk,
plus some interpreter work.  It runs no code of the program, so no
program change can move it.  Slow periods stretch both alike, so the
ratio holds.  On the tuning machine a 100-row ``NativeEngine.predict``
varied by ±14 % between processes, and its ratio to the reference by
±3 %.

The two parts are timed apart as well.  Calls that are all numpy, as
``offline-higgs``'s closed-loop ``predict`` calls are, slow down with the
numpy part: over five minutes of one process, 4,096-row calls varied
with the whole reference as its time to the power 0.5 and with the
numpy part to the power 0.8, so the whole reference over-corrected them.
Those calls are scaled by the numpy part alone (``part="numpy"``).

Timings dominated by waiting (open-loop latencies) are not scaled.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

clock = time.perf_counter

#: Reference samples within this many seconds of a measurement scale it.
WINDOW_S = 0.5

_rng = np.random.default_rng(20211)
_FEATURE = _rng.integers(0, 28, 4096).astype(np.int32)
_THRESHOLD = _rng.random(4096).astype(np.float32)
_DATA = _rng.random((100, 28)).astype(np.float32)
_ROWS = np.arange(100)[:, None]


def walk() -> int:
    """The reference's numpy part: a batched tree walk (~0.75 ms at
    nominal speed)."""
    node = np.zeros((100, 64), dtype=np.int64)
    for _ in range(8):
        go = _DATA[_ROWS, _FEATURE[node]] < _THRESHOLD[node]
        node = (2 * node + 1 + go) % 4096
    return int(node.sum())


def interpret() -> int:
    """The reference's interpreter part."""
    acc = 0
    for k in range(3000):
        d = {"id": k, "rows": (k, k + 1)}
        acc += len(d["rows"]) + d["id"]
    return acc


class HostSpeed:
    """Reference timings through a run, and the scale they give."""

    def __init__(self, nominal_ms: float, nominal_numpy_ms: float) -> None:
        self.nominal = {"all": nominal_ms, "numpy": nominal_numpy_ms}
        self.times: list[float] = []  # midpoints, in clock() order
        self.ms: dict[str, list[float]] = {"all": [], "numpy": []}

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            walk()
            t1 = clock()
            interpret()
            t2 = clock()
            self.times.append(0.5 * (t0 + t2))
            self.ms["all"].append((t2 - t0) * 1e3)
            self.ms["numpy"].append((t1 - t0) * 1e3)

    def scale(self, t0: float, t1: float, part: str = "all") -> float:
        """Nominal over measured reference time, for a measurement from
        ``t0`` to ``t1``: multiply a time by it, divide a rate by it.
        ``part`` is ``"all"`` for the whole reference or ``"numpy"`` for
        its numpy part.

        Raises:
            ValueError: no reference sample lies within ``WINDOW_S``.
        """
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:
            raise ValueError("no reference sample near the measurement")
        return self.nominal[part] / statistics.median(self.ms[part][lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ms["all"]) if self.ms["all"] else 0.0

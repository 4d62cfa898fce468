"""Tahoe: the adaptive inference engine (paper section 6.2, Algorithm 1).

* :class:`~repro.core.base.Engine` — the protocol every engine
  conforms to: keyword-only construction after ``(forest, spec)``,
  uniform ``predict(X, *, batch_size=None, report=False)``, and
  ``update_forest`` returning :class:`ConversionStats`.
* :class:`~repro.core.base.LayoutEngine` — the lifecycle the Tahoe, FIL
  and native engines share: cache-keyed conversion, layout adoption,
  the batch loop and report assembly.
* :class:`~repro.core.engine.TahoeEngine` — offline hardware detection,
  online adaptive-format conversion (with per-stage timing for the
  section 7.4 overhead analysis), per-batch model-guided strategy
  selection, inference-time edge-probability counting, and incremental-
  learning reconversion.
* :class:`~repro.core.fil.FILEngine` — the RAPIDS FIL baseline: reorg
  format + shared-data strategy, no rearrangement, fixed-width records.
* :class:`~repro.core.native.NativeEngine` — real vectorised execution
  of converted layouts on the host (wall-clock ``time_domain``), with an
  optional numba fast path.
* :func:`~repro.core.engine.convert_forest` — the one online conversion
  pipeline (Algorithm 1 lines 5–7) from a forest and a
  :class:`TahoeConfig` to the adaptive layout.
* :mod:`repro.core.metrics` — throughput / speedup / CV helpers used by
  every benchmark.
* :func:`engine_class` — which engine class serves a packed format
  (``tahoe``/``fil``) on a backend; its
  :meth:`~repro.core.base.LayoutEngine.conversion_key` names the knobs
  the layout was converted with.
"""

from repro.core.base import (
    TIME_DOMAIN_SIMULATED,
    TIME_DOMAIN_WALL,
    ConversionStats,
    Engine,
    EngineResult,
    LayoutEngine,
)
from repro.core.config import ObsConfig, TahoeConfig
from repro.core.engine import TahoeEngine, convert_forest
from repro.core.fil import FILEngine
from repro.core.metrics import geometric_mean, speedup, throughput
from repro.core.native import NativeEngine

#: Engine class per packed format (the ``engine`` of a ``.tahoe`` header).
ENGINE_KINDS: dict[str, type[LayoutEngine]] = {"tahoe": TahoeEngine, "fil": FILEngine}


def engine_class(kind: str, backend: str | None = None) -> type[LayoutEngine]:
    """The engine class serving a ``kind`` model on ``backend``.

    ``backend="native"`` executes either format on the host; any other
    backend gets the simulator engine matching the format.  An unknown
    ``kind`` raises ``KeyError``.
    """
    return NativeEngine if backend == "native" else ENGINE_KINDS[kind]


__all__ = [
    "ENGINE_KINDS",
    "ConversionStats",
    "Engine",
    "EngineResult",
    "FILEngine",
    "LayoutEngine",
    "NativeEngine",
    "TIME_DOMAIN_SIMULATED",
    "TIME_DOMAIN_WALL",
    "ObsConfig",
    "TahoeConfig",
    "TahoeEngine",
    "convert_forest",
    "engine_class",
    "geometric_mean",
    "speedup",
    "throughput",
]

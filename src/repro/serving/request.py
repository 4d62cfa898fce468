"""Request/response shapes of the serving layer.

Requests carry simulated-clock timestamps: the server is an event-driven
simulation over the same simulated seconds the engines' ``total_time``
is denominated in, so admission, coalescing and completion all live on
one consistent timeline.

Failures are *data*, not exceptions: a rejected or expired request comes
back as an :class:`InferenceResponse` whose ``error`` is a structured
:class:`ServingError` (machine-readable ``code`` + human-readable
``detail``), so one bad request can never abort a micro-batch that also
carries healthy neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ENGINE_ERROR",
    "KIND_EXPLAIN",
    "KIND_PREDICT",
    "REJECTED_DEADLINE",
    "REJECTED_INVALID",
    "REJECTED_QUEUE_FULL",
    "InferenceRequest",
    "InferenceResponse",
    "ServingError",
]

#: Error codes (the only values ``ServingError.code`` takes).
REJECTED_QUEUE_FULL = "queue_full"
REJECTED_DEADLINE = "deadline_exceeded"
#: The request's sample block does not fit the served model (wrong
#: dimensionality or column count) — refused at admission.
REJECTED_INVALID = "invalid_request"
#: The engine raised while running the request's micro-batch.
ENGINE_ERROR = "engine_error"

#: Request kinds (the only values ``InferenceRequest.kind`` takes).
KIND_PREDICT = "predict"
KIND_EXPLAIN = "explain"


@dataclass(frozen=True)
class ServingError:
    """A structured rejection: machine-readable code, human detail."""

    code: str
    detail: str = ""


@dataclass
class InferenceRequest:
    """One client request: a small block of samples with a deadline.

    Attributes:
        request_id: caller-chosen identifier, echoed on the response.
        X: ``(k, n_attributes)`` sample block (``k`` is typically 1 —
            micro-batching exists to coalesce these).
        arrival_time: simulated arrival timestamp (seconds).
        deadline: absolute simulated time after which the result is
            useless; ``None`` means no deadline.
        trace_id: identifier every stage span of this request is tagged
            with; derived from ``request_id`` when not supplied, so
            traces are stable across reruns of a deterministic workload.
        user: simulated-population user id the request belongs to
            (``None`` for anonymous traffic) — lets analyses attribute
            load to the user-population model's heavy hitters.
        kind: ``"predict"`` (the default) or ``"explain"`` — explain
            requests ask for exact SHAP attributions instead of
            predictions.  The scheduler coalesces kind-homogeneous
            micro-batches only (the two kinds run different kernels).
        n_samples: rows in ``X`` (derived once, at construction).
    """

    request_id: int
    X: np.ndarray
    arrival_time: float
    deadline: float | None = None
    trace_id: str | None = None
    user: int | None = None
    kind: str = KIND_PREDICT
    n_samples: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float32)
        if self.X.ndim == 1:
            self.X = self.X[None, :]
        if self.X.shape[0] == 0:
            raise ValueError("empty inference request")
        if self.kind not in (KIND_PREDICT, KIND_EXPLAIN):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.trace_id is None:
            self.trace_id = f"req-{self.request_id:08d}"
        self.n_samples = int(self.X.shape[0])


@dataclass
class InferenceResponse:
    """The server's answer to one :class:`InferenceRequest`.

    Attributes:
        request_id: echo of the request's identifier.
        predictions: per-sample predictions (``None`` when rejected).
        arrival_time: echo of the request's arrival.
        completion_time: simulated time the response was produced (for
            rejections: the time of the rejection decision).
        error: ``None`` on success, a :class:`ServingError` otherwise.
        missed_deadline: the request *completed*, but after its
            deadline (counted, not rejected — the work was already done).
        model_version: label of the model version that served the
            request (e.g. ``default@v2``) — requests in flight across a
            hot swap show which side of the swap they landed on.
        trace: per-stage decomposition of the request's lifetime
            (:class:`~repro.serving.tracing.RequestTrace`); ``None``
            when request tracing is disabled.
        attributions: per-sample SHAP values (explain requests only) —
            ``(k, n_features)`` or ``(k, n_features, n_classes)``; for
            explain requests ``predictions`` holds the reconstructed
            raw margins.
        base_values: the model's expected margin (explain requests
            only) — a float, or ``(n_classes,)`` for multiclass.
    """

    request_id: int
    predictions: np.ndarray | None
    arrival_time: float
    completion_time: float
    error: ServingError | None = None
    missed_deadline: bool = False
    model_version: str | None = None
    trace: object | None = None
    attributions: np.ndarray | None = None
    base_values: np.ndarray | float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time

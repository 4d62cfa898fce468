"""Request-scoped tracing for the serving pipeline.

Every :class:`~repro.serving.request.InferenceRequest` carries a trace
id; as the request moves through enqueue → coalesce → dispatch → engine
→ reduction → response, the server records one :class:`StageSpan` per
pipeline stage on the **simulated** clock.  The spans of one request
partition its ``[arrival, completion]`` interval exactly — no gaps, no
overlaps — so "why was this request slow" always has a decomposable
answer: it waited in the queue, it waited for a free engine during batch
assembly, or its batch's kernel/reduction work was long.

Stages (fixed vocabulary, one Chrome track each in the exporter):

``queue_wait``
    arrival → the dispatch decision that drained it from the queue.
``batch_assembly``
    dispatch decision → engine start (includes waiting for the
    round-robin engine replica to come free, plus batch concatenation).
``cache_lookup``
    the conversion-cache probe.  Zero-length on the simulated clock
    (layouts are cached at engine construction); its args record
    whether the serving pool was a cache hit.
``kernel``
    traversal portion of the batch's simulated GPU time.
``reduction``
    block/global reduction portion of the batch's simulated GPU time.
``response_fanout``
    splitting batch predictions back into per-request responses;
    free on the simulated clock, so zero-length at completion.

Rejected requests get a degenerate trace — ``queue_wait`` up to the
rejection decision plus a zero-length ``response_fanout`` carrying the
error code — so every response is explainable, not only successes.
"""

from __future__ import annotations

__all__ = ["RequestTrace", "StageSpan"]

#: Shared default for spans without stage context — spans are treated as
#: immutable once recorded, so one empty dict serves them all (building
#: six spans per served request puts allocation on the hot path).
_NO_ARGS: dict = {}


class StageSpan:
    """One pipeline stage of one request, on the simulated clock.

    A plain ``__slots__`` class rather than a dataclass: the server
    builds six of these per served request, which makes construction
    cost part of the serving tier's instrumentation overhead budget.
    """

    __slots__ = ("stage", "start", "end", "args")

    def __init__(
        self, stage: str, start: float, end: float, args: dict | None = None
    ) -> None:
        self.stage = stage
        self.start = start
        self.end = end
        self.args = _NO_ARGS if args is None else args

    def __repr__(self) -> str:
        return (
            f"StageSpan(stage={self.stage!r}, start={self.start!r}, "
            f"end={self.end!r}, args={self.args!r})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StageSpan)
            and self.stage == other.stage
            and self.start == other.start
            and self.end == other.end
            and self.args == other.args
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {"stage": self.stage, "start": self.start, "end": self.end}
        if self.args:
            d["args"] = dict(self.args)
        return d


class RequestTrace:
    """The full stage decomposition of one request's lifetime."""

    __slots__ = ("trace_id", "request_id", "spans")

    def __init__(
        self,
        trace_id: str,
        request_id: int,
        spans: list[StageSpan] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.spans = [] if spans is None else spans

    def __repr__(self) -> str:
        return (
            f"RequestTrace(trace_id={self.trace_id!r}, "
            f"request_id={self.request_id!r}, spans={self.spans!r})"
        )

    @property
    def start(self) -> float:
        return min(s.start for s in self.spans) if self.spans else 0.0

    @property
    def end(self) -> float:
        return max(s.end for s in self.spans) if self.spans else 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def stage(self, name: str) -> StageSpan | None:
        """The first span with the given stage name, if any."""
        for s in self.spans:
            if s.stage == name:
                return s
        return None

    def stage_durations(self) -> dict[str, float]:
        """Total seconds per stage (summed over repeated stages)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.stage] = out.get(s.stage, 0.0) + s.duration
        return out

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "spans": [s.to_dict() for s in self.spans],
        }

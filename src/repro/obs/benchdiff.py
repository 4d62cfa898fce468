"""Bench artifacts: the shared run envelope and the regression differ.

Every ``BENCH_*.json`` the repo writes — the figure/table benchmarks and
``repro serve --bench`` — wraps its payload in one envelope carrying the
provenance a regression harness needs: a run id, the git sha, a UTC
timestamp, a scenario key identifying *what* was measured (dataset,
GPU, knobs), and the environment it was measured in (Python and numpy
versions, whether numba is present, CPU count).  Two artifacts with the
same scenario key are comparable; the diff says so in one line when
their environments differ, and everything else about the envelope is
bookkeeping.

``repro bench diff OLD NEW`` (:func:`diff_payloads` under the hood)
flattens both payloads to dotted numeric leaves and classifies each
metric by its name:

* **lower-is-better** — latency / time / wait / misses / rejections:
  an increase beyond the threshold is a regression.
* **higher-is-better** — qps / throughput / speedup / cache hits:
  a decrease beyond the threshold is a regression.
* **informational** — wall-clock-class measurements (conversion stage
  timings, cold-start, host wall time) jitter run-to-run on real
  machines, and identity-class values (counts of requests offered,
  schema versions).  Changes are reported but never fail the diff.

Noise awareness is two-fold: relative changes under ``rel_threshold``
are ignored, as are absolute deltas under ``abs_floor`` (float jitter on
near-zero metrics).  Two runs of the same deterministic benchmark diff
clean; an injected 20 % latency regression exits nonzero.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "ENVELOPE_VERSION",
    "BenchDiff",
    "MetricChange",
    "bench_envelope",
    "classify_metric",
    "diff_envelopes",
    "diff_payloads",
    "flatten_numeric",
    "format_diff",
    "load_envelope",
    "run_metadata",
]

#: Version of the BENCH_*.json envelope (the payload inside keeps its
#: own schema, e.g. the RunReport's).  v1 envelopes lacked ``run``.
ENVELOPE_VERSION = 2

_LOWER_TOKENS = (
    "latency",
    "time",
    "seconds",
    "wait",
    "misses",
    "missed",
    "rejected",
    "dropped",
    "error",
    "breaches",
    "at_risk",
    "bytes",
)
_HIGHER_TOKENS = (
    "qps",
    "throughput",
    "samples_per_s",
    "speedup",
    "hits",
    "hit_rate",
    "matches",
    "agreement",
    "efficiency",
    "completed",
)
#: Wall-clock / identity metrics: never gate, only report.  Conversion
#: and cold-start stages are host wall time (machine-dependent); offered
#: load and schema versions describe the scenario, not the result.
_INFO_TOKENS = (
    "conversion",
    "wall",
    "coldstart",
    "cold_start",
    "ready",
    "timestamp",
    "schema_version",
    "offered",
    "requests",
    "threshold",
    "target_batch",
    "window",
    "n_engines",
    "n_samples",
    "batch_size",
    "config.",
)


def run_metadata(scenario: str) -> dict:
    """The envelope's provenance block: run id, git sha, timestamp, key
    and environment."""
    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "run_id": uuid.uuid4().hex[:12],
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": scenario,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "cpu_count": os.cpu_count(),
        },
    }


def bench_envelope(
    name: str, payload: dict, *, kind: str = "summary", scenario: str | None = None
) -> dict:
    """Wrap one benchmark payload in the shared artifact envelope."""
    return {
        "schema_version": ENVELOPE_VERSION,
        "benchmark": name,
        "kind": kind,
        "run": run_metadata(scenario if scenario is not None else name),
        "payload": payload,
    }


def load_envelope(path: str | Path) -> dict:
    """Read a BENCH_*.json file (v1 envelopes load fine; ``run`` empty)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    data.setdefault("run", {})
    return data


# ----------------------------------------------------------------------
# Flattening and classification
# ----------------------------------------------------------------------
def flatten_numeric(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested payload as ``{dotted.path: value}``.

    Booleans and strings are skipped (they are scenario descriptors, not
    measurements); lists index into the path.  The envelope's ``run``
    block never flattens — its whole point is to differ between runs.
    """
    out: dict[str, float] = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            if prefix == "" and key == "run":
                continue
            out.update(flatten_numeric(sub, f"{prefix}{key}."))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            out.update(flatten_numeric(sub, f"{prefix}{i}."))
    elif isinstance(value, bool) or value is None:
        pass
    elif isinstance(value, (int, float)):
        v = float(value)
        if v == v and v not in (float("inf"), float("-inf")):
            out[prefix[:-1]] = v
    return out


def classify_metric(path: str) -> str:
    """``"lower"`` / ``"higher"`` / ``"info"`` for one dotted metric path."""
    lowered = path.lower()
    if lowered.endswith("requests_per_s"):
        return "higher"  # a served rate, not the request count "requests" marks
    for token in _INFO_TOKENS:
        if token in lowered:
            return "info"
    for token in _HIGHER_TOKENS:
        if token in lowered:
            return "higher"
    for token in _LOWER_TOKENS:
        if token in lowered:
            return "lower"
    return "info"


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricChange:
    """One metric that moved between two runs."""

    path: str
    direction: str  # "lower" | "higher" | "info"
    old: float
    new: float

    @property
    def rel_change(self) -> float:
        if self.old == 0.0:
            return float("inf") if self.new != 0.0 else 0.0
        return (self.new - self.old) / abs(self.old)

    def to_dict(self) -> dict:
        rel = self.rel_change
        return {
            "path": self.path,
            "direction": self.direction,
            "old": self.old,
            "new": self.new,
            "rel_change": None if rel in (float("inf"), float("-inf")) else rel,
        }


@dataclass
class BenchDiff:
    """Outcome of comparing two bench artifacts."""

    regressions: list[MetricChange] = field(default_factory=list)
    improvements: list[MetricChange] = field(default_factory=list)
    info_changes: list[MetricChange] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    compared: int = 0
    scenario_mismatch: tuple[str, str] | None = None
    env_mismatch: tuple[dict, dict] | None = None

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "compared": self.compared,
            "regressions": [c.to_dict() for c in self.regressions],
            "improvements": [c.to_dict() for c in self.improvements],
            "info_changes": [c.to_dict() for c in self.info_changes],
            "added": list(self.added),
            "removed": list(self.removed),
            "scenario_mismatch": list(self.scenario_mismatch)
            if self.scenario_mismatch
            else None,
            "env_mismatch": list(self.env_mismatch) if self.env_mismatch else None,
        }


def diff_payloads(
    old: dict,
    new: dict,
    *,
    rel_threshold: float = 0.10,
    abs_floor: float = 1e-9,
) -> BenchDiff:
    """Compare two flattened payloads with noise-aware thresholds.

    A metric must move by more than ``rel_threshold`` relative *and*
    more than ``abs_floor`` absolute to count; which direction counts as
    a regression follows :func:`classify_metric`.
    """
    old_flat = flatten_numeric(old)
    new_flat = flatten_numeric(new)
    diff = BenchDiff()
    for path in sorted(set(old_flat) | set(new_flat)):
        if path not in new_flat:
            diff.removed.append(path)
            continue
        if path not in old_flat:
            diff.added.append(path)
            continue
        diff.compared += 1
        o, n = old_flat[path], new_flat[path]
        delta = n - o
        if abs(delta) <= abs_floor:
            continue
        rel = abs(delta) / abs(o) if o != 0.0 else float("inf")
        if rel <= rel_threshold:
            continue
        direction = classify_metric(path)
        change = MetricChange(path=path, direction=direction, old=o, new=n)
        if direction == "info":
            diff.info_changes.append(change)
        elif (direction == "lower") == (delta > 0):
            diff.regressions.append(change)
        else:
            diff.improvements.append(change)
    return diff


def diff_envelopes(
    old: dict,
    new: dict,
    *,
    rel_threshold: float = 0.10,
    abs_floor: float = 1e-9,
) -> BenchDiff:
    """Diff two loaded envelopes (payloads plus a scenario-key check).

    Raises:
        ValueError: when the two payloads declare different
            ``time_domain`` values (wall-clock vs simulated seconds) —
            throughput and latency numbers on different clocks are not
            comparable, so the diff refuses rather than report
            nonsensical regressions.  Envelopes predating the field
            (no ``time_domain``) are diffed as before.
    """
    old_payload = old.get("payload", old)
    new_payload = new.get("payload", new)
    old_domain = old_payload.get("time_domain")
    new_domain = new_payload.get("time_domain")
    if old_domain and new_domain and old_domain != new_domain:
        raise ValueError(
            f"refusing to diff across time domains: baseline is "
            f"{old_domain!r}, candidate is {new_domain!r} — wall-clock and "
            "simulated throughput are not comparable; re-run both "
            "benchmarks on the same backend"
        )
    diff = diff_payloads(
        old_payload,
        new_payload,
        rel_threshold=rel_threshold,
        abs_floor=abs_floor,
    )
    old_key = old.get("run", {}).get("scenario") or old.get("benchmark", "")
    new_key = new.get("run", {}).get("scenario") or new.get("benchmark", "")
    if old_key and new_key and old_key != new_key:
        diff.scenario_mismatch = (old_key, new_key)
    old_env = old.get("run", {}).get("env")
    new_env = new.get("run", {}).get("env")
    if old_env and new_env and old_env != new_env:
        diff.env_mismatch = (old_env, new_env)
    return diff


def _fmt_change(c: MetricChange) -> str:
    rel = c.rel_change
    pct = "new" if rel in (float("inf"), float("-inf")) else f"{rel:+.1%}"
    return f"  {c.path}: {c.old:g} -> {c.new:g} ({pct})"


def format_diff(diff: BenchDiff, *, verbose: bool = False) -> str:
    """Human-readable diff report (the CLI's output)."""
    lines: list[str] = []
    if diff.scenario_mismatch:
        old_key, new_key = diff.scenario_mismatch
        lines.append(
            f"WARNING: scenario keys differ ({old_key!r} vs {new_key!r}) — "
            "these runs may not be comparable"
        )
    if diff.env_mismatch:
        old_env, new_env = diff.env_mismatch
        changed = ", ".join(
            f"{k} {old_env.get(k)} -> {new_env.get(k)}"
            for k in sorted(old_env.keys() | new_env.keys())
            if old_env.get(k) != new_env.get(k)
        )
        lines.append(f"NOTE: the runs' environments differ ({changed})")
    lines.append(
        f"compared {diff.compared} metrics: "
        f"{len(diff.regressions)} regression(s), "
        f"{len(diff.improvements)} improvement(s), "
        f"{len(diff.info_changes)} informational change(s)"
    )
    if diff.regressions:
        lines.append("regressions:")
        lines.extend(_fmt_change(c) for c in diff.regressions)
    if diff.improvements:
        lines.append("improvements:")
        lines.extend(_fmt_change(c) for c in diff.improvements)
    if verbose and diff.info_changes:
        lines.append("informational (never gate):")
        lines.extend(_fmt_change(c) for c in diff.info_changes)
    if diff.added:
        lines.append(f"added metrics: {len(diff.added)}")
        if verbose:
            lines.extend(f"  {p}" for p in diff.added)
    if diff.removed:
        lines.append(f"removed metrics: {len(diff.removed)}")
        if verbose:
            lines.extend(f"  {p}" for p in diff.removed)
    lines.append("RESULT: " + ("clean" if diff.ok else "REGRESSION"))
    return "\n".join(lines)

"""Sets: the committed seed set resolves by name, and only a paired set
(both checkouts' runs back to back, alternating) is assessed for gains."""

import json
import subprocess
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
RUN = [sys.executable, str(E2E / "run.py")]


def _run(*args, timeout=120):
    return subprocess.run(
        RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def test_compare_finds_the_committed_seed_set_by_name():
    proc = _run("compare", "seed", "seed")
    assert proc.returncode == 0, proc.stderr
    assert "gain not assessed" in proc.stdout
    assert "regressed" not in proc.stdout


def test_a_paired_set_alternates_sides_and_is_assessed_for_gains():
    name = "selftest-paired"
    proc = _run(
        "set", name, "--runs", "1", "--seconds", "1", "--quick", "--parent", str(ROOT),
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    change = json.loads((E2E / "results" / name / "set.json").read_text())
    parent = json.loads((E2E / "results" / name / "parent" / "set.json").read_text())
    assert change["pair_id"] and change["pair_id"] == parent["pair_id"]
    firsts = [e["ran_first"][0] for e in change["workloads"].values()]
    assert firsts == [True, False, True, False]
    assert [e["ran_first"][0] for e in parent["workloads"].values()] == [not f for f in firsts]
    proc = _run("compare", f"{name}/parent", name)
    assert "gain assessed" in proc.stdout and "not assessed" not in proc.stdout

"""The benchmark refuses to measure inputs that differ from their pins."""

import copy

import pytest

import inputs
import run

PINS = inputs.load_pins()


def test_pinned_inputs_verify():
    loaded = inputs.load_inputs(["letter"], PINS)
    payload, pool = loaded["letter"]
    assert pool.shape == (1800, 16)


def _tampered():
    pins = copy.deepcopy(PINS)
    pins["forests"]["letter"]["pool_sha256"] = "0" * 64
    return pins


def test_digest_mismatch_raises():
    with pytest.raises(inputs.InputMismatch, match="letter pool"):
        inputs.load_inputs(["letter"], _tampered())


def test_run_exits_3_on_digest_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(inputs, "load_pins", _tampered)
    code = run.main(
        ["--workload", "serve-letter-single", "--seed", "1", "--seconds", "1", "--quick"]
    )
    assert code == run.EXIT_INPUTS
    assert capsys.readouterr().out == ""  # no result printed

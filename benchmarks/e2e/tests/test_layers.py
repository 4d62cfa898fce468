"""Program work no wrapper covers shows as unaccounted time."""

import pytest

from layers import Tracer, _aggregate, clock


def _busy(seconds):
    t_end = clock() + seconds
    while clock() < t_end:
        pass


def _unaccounted_share(wrap_second_call: bool) -> float:
    tracer = Tracer(enabled=True)
    program = tracer._wrap(_busy, "core.native.predict")
    with tracer.phase("p"):
        with tracer.span("loadgen.send"):
            _busy(0.002)
        program(0.01)
        (program if wrap_second_call else _busy)(0.01)
        tracer.idle_until(clock() + 0.005)
    _, by_layer = _aggregate(tracer.spans)
    return by_layer["p"].get("unaccounted", 0.0) / tracer.phase_wall["p"]


def test_wrapped_work_and_load_generator_spans_are_accounted():
    assert _unaccounted_share(wrap_second_call=True) < 0.02


def test_losing_a_wrapper_raises_the_unaccounted_share():
    # The unwrapped call is 10 of the phase's 27 ms.
    assert _unaccounted_share(wrap_second_call=False) == pytest.approx(10 / 27, abs=0.08)

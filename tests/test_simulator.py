"""Virtual measurement chain: convolution, polynomial distortion, noise."""
import json
import tracemalloc

import numpy as np
import pytest

from capricep.errors import SignalError
from capricep.simulator import MAX_PAD_SAMPLES, VirtualSystem, run

FS = 8000.0


def test_identity_passthrough():
    x = np.sin(2 * np.pi * 440.0 * np.arange(800) / FS)
    out, pre = run(VirtualSystem(lti_ir=(1.0,)), x, FS, pre_silence_s=0.1)
    assert np.allclose(out, x, atol=1e-15)
    assert np.all(pre == 0.0)
    assert len(pre) == int(0.1 * FS)


def test_latency_prepends_zeros():
    x = np.ones(10)
    out, _ = run(VirtualSystem(lti_ir=(1.0,), latency_samples=25), x, FS)
    assert np.all(out[:25] == 0.0)
    assert np.allclose(out[25:35], x)


def test_fir_convolution():
    ir = np.array([0.5, 0.0, -0.25])
    x = np.zeros(16)
    x[3] = 1.0
    out, _ = run(VirtualSystem(lti_ir=tuple(ir)), x, FS)
    assert np.allclose(out[3:6], ir)


def test_cubic_third_harmonic_closed_form():
    # y = x + c3 x^3 puts amplitude c3 A^3 / 4 at the third harmonic
    a, c3 = 0.8, 0.05
    n = 8000
    k = 40  # exact bin, integer periods
    x = a * np.sin(2 * np.pi * k * np.arange(n) / n)
    out, _ = run(VirtualSystem(lti_ir=(1.0,), nl_coeffs=(1.0, 0.0, c3)), x, FS)
    spec = np.abs(np.fft.rfft(out)) / (n / 2)
    assert spec[3 * k] == pytest.approx(c3 * a ** 3 / 4.0, rel=0.01)
    assert spec[k] == pytest.approx(a + 0.75 * c3 * a ** 3, rel=0.01)


def test_noise_level_and_determinism():
    x = np.zeros(int(FS))
    system = VirtualSystem(lti_ir=(1.0,), noise_level_db=-40.0, noise_seed=3)
    out, pre = run(system, x, FS, pre_silence_s=1.0)
    assert 20 * np.log10(np.std(pre)) == pytest.approx(-40.0, abs=0.5)
    assert 20 * np.log10(np.std(out)) == pytest.approx(-40.0, abs=0.5)
    out2, pre2 = run(system, x, FS, pre_silence_s=1.0)
    assert np.array_equal(out, out2)
    assert np.array_equal(pre, pre2)


def test_drift_modulates_amplitude():
    x = np.ones(int(FS))
    out, _ = run(VirtualSystem(lti_ir=(1.0,), drift=(0.5, 0.2)), x, FS)
    assert np.max(out) <= 1.2 + 1e-9
    assert np.min(out) >= 0.8 - 1e-9
    assert np.ptp(out) == pytest.approx(0.4, rel=0.01)


def test_overflow_guard():
    with pytest.raises(SignalError):
        run(VirtualSystem(lti_ir=(100.0,)), np.ones(16), FS)
    x = np.ones(16)
    x[3] = np.nan
    with pytest.raises(SignalError, match="not finite"):
        run(VirtualSystem(lti_ir=(1.0,)), x, FS)
    with pytest.raises(SignalError, match="empty"):
        run(VirtualSystem(lti_ir=(1.0,)), np.array([]), FS)


def test_json_roundtrip():
    system = VirtualSystem(
        lti_ir=(1.0, -0.5), nl_coeffs=(1.0, 0.0, 0.1),
        noise_level_db=-60.0, drift=(2.0, 0.1),
        latency_samples=7, noise_seed=11)
    back = VirtualSystem.from_json(json.dumps(system.to_dict()))
    assert np.array_equal(np.asarray(back.lti_ir), np.asarray(system.lti_ir))
    assert back.nl_coeffs == system.nl_coeffs
    assert back.noise_level_db == system.noise_level_db
    assert back.drift == system.drift
    assert back.latency_samples == system.latency_samples
    assert back.noise_seed == system.noise_seed


def test_invalid_system_rejected():
    with pytest.raises(SignalError):
        VirtualSystem(lti_ir=()).validate()
    with pytest.raises(SignalError):
        VirtualSystem(lti_ir=(1.0,), drift=(1.0, 0.7)).validate()
    with pytest.raises(SignalError):
        VirtualSystem(lti_ir=(1.0,), latency_samples=-1).validate()
    for bad in ({"nl_coeffs": (1.0, np.inf)}, {"noise_level_db": np.nan},
                {"drift": (np.inf, 0.1)}, {"drift": (1.0,)}):
        with pytest.raises(SignalError):
            VirtualSystem(lti_ir=(1.0,), **bad).validate()
    with pytest.raises(SignalError):
        VirtualSystem(lti_ir=((1.0, 2.0),)).validate()


@pytest.mark.parametrize("d", [
    {}, {"lti_ir": "abc"}, {"lti_ir": [1.0], "nl_coeffs": 2.0},
    {"lti_ir": [1.0], "noise_level_db": [1]}, {"lti_ir": [1.0], "latency_samples": "x"},
    {"lti_ir": [1.0], "latency_samples": 1.7}, {"lti_ir": [1.0], "latency_samples": True},
    {"lti_ir": [1.0], "latency_samples": float("inf")}, {"lti_ir": [1.0], "noise_seed": 0.5},
    {"lti_ir": [1.0], "noise_seed": False}, {"lti_ir": [1.0], "noise_seed": "5"},
    [1.0], "text",
])
def test_from_dict_maps_missing_and_mistyped_fields_to_signal_error(d):
    with pytest.raises(SignalError):
        VirtualSystem.from_dict(d)


@pytest.mark.parametrize("kw", [
    dict(latency_samples=1.7), dict(latency_samples=True), dict(latency_samples=np.inf),
    dict(noise_seed=1.5), dict(noise_seed=False), dict(noise_seed="5"),
])
def test_validate_rejects_a_field_that_is_not_a_whole_number(kw):
    """Library callers get the check from_dict applies to a system file."""
    (key,) = kw
    with pytest.raises(SignalError, match=key):
        run(VirtualSystem(lti_ir=(1.0,), noise_level_db=-60.0, **kw), np.ones(800), FS)


def test_from_dict_accepts_whole_numbers_written_as_floats():
    system = VirtualSystem.from_dict({"lti_ir": [1.0], "latency_samples": 3.0,
                                      "noise_seed": np.int64(9)})
    assert system.latency_samples == 3 and type(system.latency_samples) is int
    assert system.noise_seed == 9 and type(system.noise_seed) is int


def test_huge_latency_or_pre_silence_raises_before_allocating():
    x = np.ones(100)
    tracemalloc.start()
    try:
        with pytest.raises(SignalError, match="latency_samples"):
            run(VirtualSystem(lti_ir=(1.0,), latency_samples=10 ** 12), x, FS)
        with pytest.raises(SignalError, match="pre_silence_s"):
            run(VirtualSystem(lti_ir=(1.0,)), x, FS, pre_silence_s=10 ** 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_latency_and_pre_silence_at_the_cap_are_accepted():
    x = np.ones(10)
    system = VirtualSystem(lti_ir=(1.0,), latency_samples=MAX_PAD_SAMPLES)
    system.validate()
    with pytest.raises(SignalError, match="latency_samples"):
        VirtualSystem(lti_ir=(1.0,), latency_samples=MAX_PAD_SAMPLES + 1).validate()
    _, pre = run(VirtualSystem(lti_ir=(1.0,)), x, FS, pre_silence_s=MAX_PAD_SAMPLES / FS)
    assert len(pre) == MAX_PAD_SAMPLES

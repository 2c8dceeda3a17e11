"""Single sections and signed cascades against independent filter oracles."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from capricep.allpass import SECTION_DTYPE, CascadeResponse, cascade_phase, impulse_response
from capricep.design import DesignParams, draw_sections, raised_cosine_short_params
from capricep.errors import DesignError, SignalError
from capricep.fftconv import next_pow2

FS = 8000.0
N_FFT = 8192


def _record(rows) -> np.ndarray:
    """(center_freq_hz, bandwidth_hz, time_sign) rows as a section array."""
    return np.asarray(rows, SECTION_DTYPE)


def _iir_frequency_response(row, fs: float, n_fft: int):
    """Oracle: run the direct-form recursion and FFT the response."""
    section = _record([row])[0]
    r = np.exp(-np.pi * section.bandwidth_hz / fs)
    theta = 2.0 * np.pi * section.center_freq_hz / fs
    a1 = -2.0 * r * np.cos(theta)
    a2 = r * r
    x = np.zeros(n_fft)
    x[0] = 1.0
    h = lfilter([a2, a1, 1.0], [1.0, a1, a2], x)
    return np.fft.fft(h)


def _full_phase(resp) -> np.ndarray:
    """Odd-symmetric mirror of a cascade's half-grid phase (length n_fft)."""
    half = resp.phase_half
    return np.concatenate([half, -half[-2:0:-1]])


def section_phase(row, fs: float, n_fft: int) -> np.ndarray:
    """Phase of one section row on the full n_fft grid (radians)."""
    return _full_phase(cascade_phase([row], fs, n_fft))


def _two_arctan2_phase_half(sections, fs: float, n_fft: int) -> np.ndarray:
    """Reference: the earlier kernel, one arctan2 per pole on w -+ theta."""
    sections = _record(sections)
    omega = 2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
    phase = -2.0 * omega * sum(s.time_sign for s in sections)
    for s in sections:
        r = np.exp(-np.pi * s.bandwidth_hz / fs)
        theta = 2.0 * np.pi * s.center_freq_hz / fs
        a_pos = np.arctan2(r * np.sin(omega - theta), 1.0 - r * np.cos(omega - theta))
        a_neg = np.arctan2(r * np.sin(omega + theta), 1.0 - r * np.cos(omega + theta))
        phase -= 2.0 * s.time_sign * (a_pos + a_neg)
    return phase


def _arctan2_phase_half(sections, fs: float, n_fft: int) -> np.ndarray:
    """Reference: the earlier kernel, one arctan2 of the pole-pair
    denominator A(e^{jw}) = 1 + a1 e^{-jw} + a2 e^{-2jw} per section and bin."""
    sections = _record(sections)
    omega = 2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
    phase = -2.0 * omega * sum(s.time_sign for s in sections)
    for s in sections:
        r = np.exp(-np.pi * s.bandwidth_hz / fs)
        a1 = -2.0 * r * np.cos(2.0 * np.pi * s.center_freq_hz / fs)
        a2 = r * r
        re = 1.0 + a1 * np.cos(omega) + a2 * np.cos(2.0 * omega)
        im = -(a1 * np.sin(omega) + a2 * np.sin(2.0 * omega))
        phase -= 2.0 * s.time_sign * np.arctan2(im, re)
    return phase


def _design_sections(fs, fd, seed=0):
    return draw_sections(DesignParams(fs=fs, fd=fd, seed=seed))


@pytest.mark.parametrize("label,sections,fs,n_fft", [
    ("measure design", _design_sections(16000.0, 100.0), 16000.0, 4096),
    ("paper default", _design_sections(44100.0, 40.0), 44100.0, 16384),
    ("paper default", _design_sections(44100.0, 40.0), 44100.0, 32768),
    ("composite", np.concatenate([draw_sections(raised_cosine_short_params(44100.0, 5)),
                                  _design_sections(44100.0, 40.0, seed=5)]), 44100.0, 32768),
    ("augment unit", _design_sections(16000.0, 868.0), 16000.0, 512),
    # the series runs to about 1600 terms, folded onto 1024 and 256 bins
    ("fold", _design_sections(16000.0, 100.0), 16000.0, 1024),
    ("fold", _design_sections(16000.0, 100.0), 16000.0, 256),
    # about 42,000 terms: three row blocks, two of them starting inside the grid
    ("long series", [(300.0, 2.0, 1), (1234.5, 2.0, -1), (3000.0, 2.0, 1)], FS, 65536),
])
def test_sine_series_matches_arctan2_reference(label, sections, fs, n_fft):
    half = cascade_phase(sections, fs, n_fft).phase_half
    assert np.max(np.abs(half - _arctan2_phase_half(sections, fs, n_fft))) <= 1e-9
    h = np.fft.irfft(np.exp(1j * half), n_fft)
    assert np.max(np.abs(np.abs(np.fft.rfft(h)) - 1.0)) <= 1e-12


def test_sine_series_work_arrays_are_blocked():
    """Without the section or the row blocks the traced peak is 17 to
    44 MiB here; with them it is about 7 MiB."""
    sections = _design_sections(44100.0, 10.0)
    tracemalloc.start()
    try:
        cascade_phase(sections, 44100.0, 65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("bw", [1e6, 1e300, np.inf])
def test_a_section_wider_than_the_band_is_a_two_sample_delay(bw):
    """r = exp(-pi bw / fs) rounds to 0: the section's phase is -2w."""
    sections = [(1000.0, bw, 1), (3000.0, 80.0, -1)]
    half = cascade_phase(sections, FS, 256).phase_half
    assert np.max(np.abs(half - _arctan2_phase_half(sections, FS, 256))) <= 1e-12


def test_section_too_narrow_for_the_series_is_refused():
    with pytest.raises(DesignError, match="too narrow"):
        cascade_phase([(1000.0, 1e-6, 1)], FS, 256)


@pytest.mark.parametrize("fs,fd,n_fft", [
    (44100.0, 40.0, 16384),  # the paper's default design
    (16000.0, 100.0, 4096),  # the measurement design of the benchmark
])
def test_pole_pair_kernel_matches_two_arctan2_reference_on_designs(fs, fd, n_fft):
    sections = draw_sections(DesignParams(fs=fs, fd=fd, seed=0))
    resp = cascade_phase(sections, fs, n_fft)
    dev = np.max(np.abs(resp.phase_half - _two_arctan2_phase_half(sections, fs, n_fft)))
    assert dev <= 1e-9
    h = np.fft.irfft(np.exp(1j * resp.phase_half), n_fft)
    assert np.max(np.abs(np.abs(np.fft.rfft(h)) - 1.0)) <= 1e-12


@pytest.mark.parametrize("count,n_fft", [(9, 512), (127, 1024), (128, 1024),
                                         (129, 1024), (257, 1024)])
@pytest.mark.parametrize("signs", ["causal", "anti-causal", "mixed"])
def test_pole_pair_kernel_matches_two_arctan2_reference_across_blocks(count, n_fft, signs):
    rng = np.random.default_rng(count)
    time_signs = {"causal": np.ones(count, dtype=int),
                  "anti-causal": -np.ones(count, dtype=int),
                  "mixed": rng.choice([-1, 1], count)}[signs]
    sections = list(zip(rng.uniform(1.0, FS / 2 - 1.0, count),
                        rng.uniform(0.5, 2000.0, count), time_signs))
    half = cascade_phase(sections, FS, n_fft).phase_half
    assert np.max(np.abs(half - _two_arctan2_phase_half(sections, FS, n_fft))) <= 1e-9


@pytest.mark.parametrize("f0,bw", [(440.0, 50.0), (1234.5, 200.0), (3500.0, 10.0)])
def test_section_phase_matches_iir_recursion(f0, bw):
    section = (f0, bw, 1)
    phase = section_phase(section, FS, N_FFT)
    oracle = _iir_frequency_response(section, FS, N_FFT)
    # residual angle; insensitive to 2*pi wrapping
    resid = np.angle(oracle * np.exp(-1j * phase))
    assert np.max(np.abs(resid)) < 1e-6


def test_time_reversed_section_negates_phase():
    fwd = section_phase((700.0, 80.0, 1), FS, 1024)
    rev = section_phase((700.0, 80.0, -1), FS, 1024)
    assert np.allclose(fwd, -rev, atol=1e-12)


def test_section_and_its_time_reverse_cancel():
    a = (900.0, 60.0, 1)
    b = (900.0, 60.0, -1)
    resp = cascade_phase([a, b], FS, 512)
    assert np.max(np.abs(resp.phase_half)) < 1e-12


def test_cascade_phase_is_sum_of_section_phases():
    sections = [(300.0, 40.0, 1), (1100.0, 40.0, -1), (2600.0, 40.0, 1)]
    total = _full_phase(cascade_phase(sections, FS, 2048))
    parts = sum(section_phase(s, FS, 2048) for s in sections)
    assert np.allclose(total, parts, atol=1e-9)


def test_two_section_cascade_matches_direct_circular_convolution():
    n = 256
    a = (500.0, 300.0, 1)
    b = (2000.0, 250.0, 1)
    ha = np.fft.irfft(np.exp(1j * cascade_phase([a], FS, n).phase_half), n)
    hb = np.fft.irfft(np.exp(1j * cascade_phase([b], FS, n).phase_half), n)
    hab = np.fft.irfft(np.exp(1j * cascade_phase([a, b], FS, n).phase_half), n)
    direct = np.array([
        sum(ha[k] * hb[(i - k) % n] for k in range(n)) for i in range(n)
    ])
    assert np.max(np.abs(hab - direct)) < 1e-10


def test_impulse_response_unit_energy_and_delta_autocorr():
    sections = [(200.0 * (k + 1), 75.0, (-1) ** k) for k in range(12)]
    resp = cascade_phase(sections, FS, 1024)
    h, center = impulse_response(resp)
    assert center == 512
    assert abs(np.dot(h, h) - 1.0) < 1e-12
    # circular autocorrelation of a unit-magnitude spectrum is a delta
    n = len(h)
    for lag in (1, 7, 100, n // 2):
        ac = float(np.dot(h, np.roll(h, lag)))
        assert abs(ac) < 1e-10


def test_empty_cascade_is_a_centered_delta():
    resp = cascade_phase([], FS, 64)
    assert np.all(resp.phase_half == 0.0)
    h, center = impulse_response(resp)
    assert h[center] == pytest.approx(1.0)
    assert np.max(np.abs(np.delete(h, center))) < 1e-14


def test_phase_odd_symmetry_on_full_grid():
    resp = cascade_phase([(800.0, 90.0, 1)], FS, 256)
    full = _full_phase(resp)
    assert full[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(full[1:128][::-1], -full[129:], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    f0=st.floats(1.0, FS / 2 - 1.0),
    bw=st.floats(0.5, 2000.0),
    sign=st.sampled_from([1, -1]),
)
def test_any_section_has_unit_magnitude(f0, bw, sign):
    resp = cascade_phase([(f0, bw, sign)], FS, 256)
    h = np.fft.irfft(np.exp(1j * resp.phase_half), 256)
    mag = np.abs(np.fft.rfft(h))
    assert np.max(np.abs(mag - 1.0)) < 1e-12


@pytest.mark.parametrize("bad,message", [
    ((0.0, 10.0, 1), "center_freq_hz=0.0 outside"),
    ((FS, 10.0, 1), "center_freq_hz=8000.0 outside"),
    ((100.0, -1.0, 1), "bandwidth_hz=-1.0 must be > 0"),
    ((100.0, float("nan"), 1), "bandwidth_hz=nan must be > 0"),
    ((100.0, 10.0, 0), "time_sign=0.0 must be"),
    ((100.0, 10.0, 1.5), "time_sign=1.5 must be"),
], ids=[f"bad{i}" for i in range(6)])
def test_invalid_sections_rejected(bad, message):
    """A bad row among good ones is refused, and the message names its value."""
    with pytest.raises(DesignError, match=message):
        cascade_phase([(300.0, 40.0, 1), bad, (500.0, 40.0, -1)], FS, 256)


@pytest.mark.parametrize("index", [0, -1])
def test_complex_dc_or_nyquist_bin_rejected(index):
    """cascade_phase pins both bins real; a hand-built phase may not."""
    phase = np.zeros(129)
    phase[index] = 0.5
    with pytest.raises(SignalError, match="DC/Nyquist"):
        impulse_response(CascadeResponse(phase, 256))


def _time_domain_centroid(h: np.ndarray) -> float:
    """The earlier centroid: angular mean of h^2 over n-point tables."""
    n = len(h)
    energy = h * h
    turn = 2.0 * np.pi / n * np.arange(n)
    return np.arctan2(energy @ np.sin(turn), energy @ np.cos(turn))


@pytest.mark.parametrize("fs,fd,t_erd_s,truncation", [
    (44100.0, 40.0, 1.736 / 40.0, 4.0),  # the paper's default design
    (16000.0, 100.0, 1.736 / 100.0, 4.0),  # the measure workload's design
    (16000.0, 868.0, 0.002, 8.0),  # augment's units at T_ERD 2 ms
])
def test_spectral_centroid_matches_time_domain_centroid(fs, fd, t_erd_s, truncation):
    """impulse_response rotates by the same integer shift that the
    time-domain centroid of the unrotated response gives."""
    n_fft = next_pow2(2 * round(truncation * t_erd_s * fs))
    for seed in range(60):
        resp = cascade_phase(draw_sections(DesignParams(fs=fs, fd=fd, seed=seed)), fs, n_fft)
        h, center = impulse_response(resp)
        spectrum = np.cos(resp.phase_half) + 1j * np.sin(resp.phase_half)
        raw = np.fft.irfft(spectrum, n_fft)
        shift = int(np.round(_time_domain_centroid(raw) / (2.0 * np.pi) * n_fft)) % n_fft
        assert np.array_equal(h, np.roll(raw, center - shift)), seed


def test_non_power_of_two_fft_rejected():
    with pytest.raises(SignalError):
        cascade_phase([], FS, 100)


def test_next_pow2():
    assert next_pow2(1) == 2
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(4096) == 4096
    assert next_pow2(4097) == 8192

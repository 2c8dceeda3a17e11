"""All-pass filter-bank augmentation: invariants and reporting."""
import importlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve, lfilter
from scipy.stats import skew

from capricep.augment import (
    HISTOGRAM_BINS,
    SNR_CAP_DB,
    _CHUNK,
    _aligned_snr_db,
    _histogram,
    _LagSearch,
    _peak_lag,
    _skewness,
    _worker_count,
    augment,
)
from capricep.bands import band_powers, third_octave_centers, to_db
from capricep.cli import main
from capricep.design import TERD_NOMINAL_RATIO, DesignParams, derive_unit_designs, generate_unit
from capricep.errors import DesignError, SignalError, TooFewSectionsError
from capricep.fftconv import OverlapSave, autocorrelation, next_pow2
from capricep.wavio import read_wav

FS = 16000.0
# The package re-exports the augment() function under the submodule's name.
_augment_module = importlib.import_module("capricep.augment")
_FAN_OUT = _augment_module._fan_out


def _reference_aligned_snr_db(x, y):
    """Aligned SNR from a full linear cross-correlation, lags
    -(len(x) - 1) .. len(y) - 1 in order."""
    cc = fftconvolve(y, x[::-1], mode="full")
    lag = int(np.argmax(np.abs(cc))) - (len(x) - 1)
    if lag >= 0:
        ya = y[lag:lag + len(x)]
    else:
        ya = np.concatenate([np.zeros(-lag), y])[: len(x)]
    if len(ya) < len(x):
        ya = np.concatenate([ya, np.zeros(len(x) - len(ya))])
    denom = float(np.dot(ya, ya))
    gain = float(np.dot(x, ya)) / denom if denom > 0 else 1.0
    err = x - gain * ya
    pe = float(np.dot(err, err))
    px = float(np.dot(x, x))
    if pe <= px * 10.0 ** (-SNR_CAP_DB / 10.0):
        return SNR_CAP_DB
    return 10.0 * np.log10(px / pe)


def _reference_band_level_deviation_db(x, y, fs, f_low=25.0):
    """Per-band level difference 10 log10(Py / Px), same length inputs."""
    centers = third_octave_centers(fs, f_low)
    n_fft = next_pow2(max(len(x), len(y)))
    px = band_powers(x, fs, centers, n_fft)
    py = band_powers(y, fs, centers, n_fft)
    keep = px > 0
    return to_db(py[keep]) - to_db(px[keep])


def _reference_skewness(v):
    """Sample skewness, 0.0 for a constant signal (no variance)."""
    return 0.0 if np.ptp(v) == 0.0 else float(skew(v))


def _reference_augment(x, fs, base, n_variants, seed, t_erd_s):
    """Variants and report one variant at a time: direct convolution,
    linear cross-correlation and both band spectra per variant."""
    identity = base.fd >= fs / 2.0
    peak = float(np.max(np.abs(x))) or 1.0
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    variants, snrs, deltas = [], [], []
    hists, skews = [np.histogram(x / peak, edges)[0] / len(x)], [_reference_skewness(x)]
    for p in derive_unit_designs(replace(base, seed=seed), n_variants):
        y = x.copy() if identity else fftconvolve(x, generate_unit(p, t_erd_s).samples)
        variants.append(y)
        snrs.append(_reference_aligned_snr_db(x, y))
        hists.append(np.histogram(y / peak, edges)[0] / len(y))
        skews.append(_reference_skewness(y))
        xi = np.concatenate([x, np.zeros(len(y) - len(x))])
        deltas.append(_reference_band_level_deviation_db(xi, y, fs))
    return variants, np.array(snrs), np.stack(hists), np.stack(deltas), np.array(skews)


def _snr_at(x, y, lag):
    """augment's aligned SNR of y at ``lag``, with x . x summed and the
    error formed as it sums and forms them."""
    return _aligned_snr_db(x, y, lag, float(np.einsum("i,i->", x, x)), np.empty(_CHUNK))


def _asymmetric_signal(n=16000):
    x = np.zeros(n)
    x[::400] = 1.0
    return x


def test_identity_when_no_section_fits():
    x = np.sin(2 * np.pi * 300.0 * np.arange(4000) / FS)
    params = DesignParams(fs=FS, fd=FS, seed=0)  # no section below Nyquist
    variants, rep = augment(x, FS, base_params=params, n_variants=2)
    for v, snr in zip(variants, rep.snr_db):
        assert np.array_equal(v, x)
        assert snr == SNR_CAP_DB
    assert np.array_equal(rep.value_histograms[0], rep.value_histograms[1])


def test_variants_use_the_derived_designs_of_the_seed_argument():
    x = _asymmetric_signal(4000)
    t_erd = 0.004
    base = DesignParams(fs=FS, fd=500.0, seed=999, truncation_factor=6.0)
    variants, _ = augment(x, FS, base_params=base, n_variants=3, seed=4, t_erd_s=t_erd)
    same, _ = augment(x, FS, base_params=replace(base, seed=4), n_variants=3, seed=4,
                      t_erd_s=t_erd)
    assert all(np.array_equal(v, w) for v, w in zip(variants, same))
    designs = derive_unit_designs(DesignParams(fs=FS, fd=500.0, seed=4,
                                               truncation_factor=6.0), 3)
    for v, d in zip(variants, designs):
        ref = fftconvolve(x, generate_unit(d, t_erd).samples)
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_energy_preserved_within_one_percent():
    x = _asymmetric_signal()
    variants, _ = augment(x, FS, n_variants=3, seed=5)
    e = np.dot(x, x)
    for v in variants:
        assert np.dot(v, v) == pytest.approx(e, rel=0.01)


def test_band_spectrum_preserved():
    x = _asymmetric_signal()
    _, rep = augment(x, FS, n_variants=3, seed=5)
    assert np.max(np.abs(rep.spectra_delta_db)) <= 0.5


def test_skewness_reduced_on_one_sided_pulses():
    x = _asymmetric_signal()
    _, rep = augment(x, FS, n_variants=4, seed=11)
    original = rep.skewness[0]
    assert original > 5.0
    assert np.all(np.abs(rep.skewness[1:]) < 0.5 * original)


def test_waveform_actually_changes():
    x = _asymmetric_signal()
    variants, rep = augment(x, FS, n_variants=3, seed=2)
    assert all(rep.snr_db < 30.0)
    for i in range(3):
        for j in range(i + 1, 3):
            n = min(len(variants[i]), len(variants[j]))
            assert not np.allclose(variants[i][:n], variants[j][:n])


def test_determinism_and_report_shapes():
    x = _asymmetric_signal(8000)
    v1, r1 = augment(x, FS, n_variants=2, seed=9)
    v2, r2 = augment(x, FS, n_variants=2, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(v1, v2))
    assert np.array_equal(r1.snr_db, r2.snr_db)
    assert r1.value_histograms.shape[0] == 3  # original + 2 variants
    assert r1.skewness.shape == (3,)
    assert len(r1.histogram_edges) == r1.value_histograms.shape[1] + 1
    assert np.all(r1.value_histograms >= 0.0)
    assert np.allclose(r1.value_histograms.sum(axis=1), 1.0, atol=1e-9)


def test_bad_inputs_rejected():
    with pytest.raises(SignalError):
        augment(np.array([]), FS)
    with pytest.raises(SignalError, match="silent"):
        augment(np.zeros(100), FS)
    with pytest.raises(SignalError):
        augment(np.ones(100), FS, n_variants=0)


@pytest.mark.parametrize("t_erd_s", [0.0, -0.001, float("nan"), float("inf")])
def test_non_finite_or_non_positive_t_erd_rejected(t_erd_s):
    with pytest.raises(DesignError, match="t_erd_s"):
        augment(np.ones(100), FS, t_erd_s=t_erd_s)
    identity = DesignParams(fs=FS, fd=FS, seed=0)
    with pytest.raises(DesignError, match="t_erd_s"):
        augment(np.ones(100), FS, base_params=identity, t_erd_s=t_erd_s)


def test_band_level_deviation_of_one_sample_is_empty():
    x = np.array([0.5])
    assert _reference_band_level_deviation_db(x, x, 8000.0).size == 0


def _noise_with_pulses(n, seed):
    x = 0.1 * np.random.default_rng(seed).standard_normal(n)
    x[::97] += 0.8
    return x


@pytest.mark.parametrize("n,n_variants,fd,truncation,tone_hz", [
    (6000, 1, 868.0, 8.0, None),    # the default base design at T_ERD 2 ms
    (6000, 16, 868.0, 8.0, None),
    (1, 3, 868.0, 8.0, None),       # one sample: no negative lag to search
    (100, 2, 868.0, 8.0, None),     # unit (256 samples) longer than the input
    (3000, 2, 9000.0, 8.0, None),   # identity: fd >= fs/2
    (6000, 2, 100.0, 8.0, None),    # long units: 2222 samples
    (6000, 3, 868.0, 8.0, 1000.0),  # a pure tone: most bands hold only leakage
    # Short truncation: band deltas of ~0.01 dB, where at 8.0 they are
    # ~1e-10 dB, below the bound itself.
    (6000, 3, 100.0, 2.5, None),
], ids=["6000-1-868.0", "6000-16-868.0", "1-3-868.0", "100-2-868.0", "3000-2-9000.0",
        "long-unit", "pure-tone", "short-truncation"])
def test_shared_spectrum_matches_per_variant_reference(n, n_variants, fd, truncation, tone_hz):
    if tone_hz is None:
        x = _noise_with_pulses(n, seed=n)
    else:
        x = 0.5 * np.sin(2.0 * np.pi * tone_hz * np.arange(n) / FS)
    t_erd_s = 0.002 if fd >= FS / 2.0 else TERD_NOMINAL_RATIO / fd
    base = DesignParams(fs=FS, fd=fd, seed=0, truncation_factor=truncation)
    variants, rep = augment(x, FS, base_params=base, n_variants=n_variants,
                            seed=21, t_erd_s=t_erd_s)
    ref_v, ref_snr, ref_hist, ref_delta, ref_skew = _reference_augment(
        x, FS, base, n_variants, 21, t_erd_s)
    peak = max(float(np.max(np.abs(v))) for v in ref_v)
    for v, r in zip(variants, ref_v):
        assert v.shape == r.shape
        if fd >= FS / 2.0:
            assert np.array_equal(v, r)
        assert np.max(np.abs(v - r)) <= 1e-14 * peak
    assert np.max(np.abs(rep.snr_db - ref_snr)) <= 1e-9
    assert rep.spectra_delta_db.shape == ref_delta.shape
    assert np.max(np.abs(rep.spectra_delta_db - ref_delta), initial=0.0) <= 1e-9
    assert np.array_equal(rep.value_histograms, ref_hist)
    # A one-sample input has no variance: skewness 0.0 on both sides.
    np.testing.assert_allclose(rep.skewness, ref_skew, rtol=0.0, atol=1e-12)


def _linear_xcorr(x, y):
    """Cross-correlation of y with x, lags -(len(x) - 1) .. len(y) - 1."""
    return fftconvolve(y, x[::-1], mode="full")


@pytest.mark.parametrize("shift", [1, 7, -1, -7, -199])
def test_aligned_snr_finds_positive_and_wrapped_negative_lags(shift):
    """y is x delayed (shift > 0) or advanced (shift < 0); -199 is the
    most negative lag, the first sample of cc."""
    x = np.random.default_rng(3).standard_normal(200)
    x[-1] = 10.0  # so the most advanced copy peaks at lag -(len(x) - 1)
    if shift >= 0:
        y = np.concatenate([np.zeros(shift), x])
        expected = SNR_CAP_DB
    else:
        y = np.concatenate([x[-shift:], np.zeros(len(x))])
        # Aligned at the right lag, only the advanced-off head x[:-shift] is lost.
        expected = 10.0 * np.log10(np.dot(x, x) / np.dot(x[:-shift], x[:-shift]))
    assert _reference_aligned_snr_db(x, y) == pytest.approx(expected, abs=1e-9)
    lag = _peak_lag(_linear_xcorr(x, y), 1 - len(x))
    assert lag == shift
    assert _snr_at(x, y, lag) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("lag", [-9, -1, 0, 6, 7, 15])
def test_aligned_snr_at_each_placement_of_x_against_y(lag):
    """x starts before y (lag < 0), lies inside it (0 .. 6) or runs past
    its end (7 .. 15); zeros stand in for the samples y lacks.  Sums are
    np.einsum's, as in augment."""
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(10), rng.standard_normal(16)
    padded = np.concatenate([np.zeros(len(x)), y, np.zeros(len(x))])
    ya = padded[lag + len(x):lag + 2 * len(x)]

    def dot(a, b):
        return float(np.einsum("i,i->", a, b))
    err = x - dot(x, ya) / dot(ya, ya) * ya
    assert _snr_at(x, y, lag) == 10.0 * np.log10(dot(x, x) / dot(err, err))


@pytest.mark.parametrize("chunk", [1, 3, 4])
@pytest.mark.parametrize("lag", [-9, -1, 0, 6, 7, 15])
def test_aligned_snr_in_chunks_equals_it_in_one_piece(lag, chunk):
    """Formed a few samples at a time, at each placement, the SNR is the
    one formed over all of x, to rounding."""
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(10), rng.standard_normal(16)
    xx = float(np.einsum("i,i->", x, x))
    whole = _aligned_snr_db(x, y, lag, xx, np.empty(len(x)))
    assert _aligned_snr_db(x, y, lag, xx, np.empty(chunk)) == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_histogram_counts_as_np_histogram_does(chunk):
    """Samples on every edge, one step past either end, outside and in
    between, counted in chunks of any length: np.histogram's shares."""
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    rng = np.random.default_rng(chunk)
    for peak in (1.0, 0.7, 3.0):
        past = np.nextafter(peak, 2.0 * peak)
        x = np.concatenate([edges * peak, [past, -past, 2.0 * peak, -2.0 * peak],
                            0.6 * peak * rng.standard_normal(5000)])
        x = rng.permutation(x)
        want = np.histogram(x / peak, edges)[0] / len(x)
        assert _histogram(x, peak, edges, np.empty(chunk)).tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 5, 999, 1000])
def test_skewness_in_chunks_equals_scipys(chunk):
    x = _noise_with_random_pulses(1000, seed=7)
    assert _skewness(x, np.empty(chunk)) == pytest.approx(float(skew(x)), rel=1e-12)


def test_aligned_snr_breaks_a_tie_toward_the_negative_lag():
    """Equal |cc| at lags -2 and +2: the first in lag order wins, as an
    argmax over -(len(x) - 1) .. len(y) - 1 would pick it.  Both lag
    searches, over a window or over every lag, pick with ``_peak_lag``."""
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cc = np.zeros(len(x) + len(y) - 1)  # lag l at cc[l + 2]
    cc[4], cc[0] = 1.0, -1.0
    lag = _peak_lag(cc, 1 - len(x))
    assert lag == -2
    assert _snr_at(x, y, lag) == SNR_CAP_DB  # lag +2 would give 0 dB
    assert _peak_lag(np.array([0.5, -2.0, 1.0, 2.0]), -512) == -511


def _noise_with_random_pulses(n, seed):
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(n)
    x[rng.integers(0, n, n // 97)] += 0.8
    return x


def _speech_like(n, seed):
    """Syllables with pauses: voiced ones are a gliding 90-220 Hz pulse
    train through three formant resonators, the rest filtered noise."""
    rng = np.random.default_rng(seed)
    x = 1e-3 * rng.standard_normal(n)
    pos = int(rng.uniform(0.05, 0.2) * FS)
    while pos < n:
        length = min(n - pos, int(rng.uniform(0.08, 0.35) * FS))
        if rng.random() < 0.75:
            glide = 1.0 + 0.15 * rng.uniform(-1.0, 1.0) * np.linspace(-1.0, 1.0, length)
            pulses = np.diff(np.floor(np.cumsum(rng.uniform(90.0, 220.0) * glide / FS)),
                             prepend=0.0)
            seg = np.zeros(length)
            for lo, hi, bw in ((300, 900, 80), (900, 2400, 110), (2400, 3500, 160)):
                rad = np.exp(-np.pi * bw / FS)
                cos = np.cos(2.0 * np.pi * rng.uniform(lo, hi) / FS)
                seg += lfilter([1.0 - rad], [1.0, -2.0 * rad * cos, rad * rad], pulses)
        else:
            seg = lfilter([1.0, -0.9], [1.0], rng.normal(0.0, 0.3, length))
        x[pos:pos + length] += seg * np.hanning(length) * rng.uniform(0.3, 1.0)
        pos += length + int(rng.uniform(0.02, 0.2) * FS)
    return x


def _full_search_lag(x, m, u):
    """The lag of the first maximum of |r_xx * u| over every lag."""
    return _peak_lag(OverlapSave(autocorrelation(x), m).convolve(u), 1 - len(x))


def _check_lags_and_snrs(x, seed, n_variants=4):
    """augment's SNRs are bit-identical to those at the full search's
    lags; returns how many variants the lag search had to search fully."""
    base = DesignParams(fs=FS, fd=868.0, seed=seed, truncation_factor=8.0)
    units = [generate_unit(p, 0.002).samples for p in derive_unit_designs(base, n_variants)]
    m = max(map(len, units))
    search = _LagSearch(x, m)
    variants, rep = augment(x, FS, base_params=base, n_variants=n_variants, seed=seed)
    for u, y, snr in zip(units, variants, rep.snr_db):
        lag = _full_search_lag(x, m, u)
        assert search.lag(u) == lag
        assert snr == _snr_at(x, y, lag)
    return search.full_searches


@pytest.mark.parametrize("signal", [_noise_with_random_pulses, _speech_like])
def test_certified_lag_and_snr_equal_the_full_search(signal):
    full = sum(_check_lags_and_snrs(signal(32000, seed), seed) for seed in range(12))
    assert full <= 12  # of 48 variants: the certificate proves most lags


@pytest.mark.parametrize("signal", [
    lambda n: 0.5 * np.sin(2.0 * np.pi * 1000.0 * np.arange(n) / FS),
    lambda n: (np.arange(n) % 97 == 0).astype(float),
], ids=["pure-tone", "pulse-train-97"])
def test_periodic_inputs_fall_back_to_the_full_search(signal):
    """A periodic input's autocorrelation is as large far from lag 0 as
    near it, so no window bound can prove the peak."""
    assert _check_lags_and_snrs(signal(32000), seed=3) == 4


@pytest.mark.parametrize("n", [5 * 256 + 1, 5 * 256 + 2, 5 * 256 + 257, 32000])
def test_window_correlation_equals_the_full_one_at_every_window_lag(n):
    """Lags -512 .. 767 of r_xx * u for units of 256 samples and shorter,
    on inputs from just past the window's length up."""
    x = _noise_with_random_pulses(n, seed=n)
    u = generate_unit(DesignParams(fs=FS, fd=868.0, seed=1, truncation_factor=8.0),
                      0.002).samples
    search = _LagSearch(x, len(u))
    full = OverlapSave(autocorrelation(x), len(u))
    for k in (len(u), 100, 1):
        cc = full.convolve(u[:k])[n - 1 - 512:n - 1 + 768]
        np.testing.assert_allclose(search.window_cc(u[:k]), cc, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(cc)))
        assert search.lag(u[:k]) == _full_search_lag(x, len(u), u[:k])


@pytest.mark.parametrize("n", [1, 100, 5 * 256])
def test_inputs_without_lags_outside_the_window_search_every_lag(n):
    """The window spans 5 m lags: no shorter input leaves a lag for the
    bound to exclude, so every variant is searched at every lag."""
    x = _noise_with_random_pulses(n, seed=n)
    u = generate_unit(DesignParams(fs=FS, fd=868.0, seed=1, truncation_factor=8.0),
                      0.002).samples
    assert len(u) == 256
    search = _LagSearch(x, len(u))
    assert search.lag(u) == _full_search_lag(x, len(u), u)
    assert search.lag(u[:100]) == _full_search_lag(x, len(u), u[:100])
    assert search.full_searches == 2


# tracemalloc peak of the call below on the parent of the certified lag
# search (commit 2decc89, numpy 2.4.6), which correlated every variant
# with the input at every lag by overlap-save.
_FULL_SEARCH_PEAK_BYTES = 30_409_519


def _traced_peak_of_16_variants():
    x = _noise_with_random_pulses(160_000, seed=0)
    augment(x[:8000], FS, n_variants=1, seed=1)  # leave first-call caches out
    tracemalloc.start()
    try:
        augment(x, FS, n_variants=16, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certified_search_uses_no_more_memory_than_the_full_search():
    assert _traced_peak_of_16_variants() <= _FULL_SEARCH_PEAK_BYTES


def test_one_worker_per_variant_stays_within_the_full_searchs_memory(monkeypatch):
    """A worker holds a few chunks, not a signal: on 16 CPUs, 16 workers
    still trace no more than the full search did on one thread."""
    widths = _on_cpus(monkeypatch, 16)
    assert _traced_peak_of_16_variants() <= _FULL_SEARCH_PEAK_BYTES
    assert widths == [1, 16]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    x = np.ones(100)
    x[50] = bad
    with pytest.raises(SignalError, match="non-finite"):
        augment(x, FS)
    with pytest.raises(SignalError, match="non-finite"):
        augment(x, FS, base_params=DesignParams(fs=FS, fd=FS, seed=0))


def test_variant_with_too_few_sections_below_nyquist_is_the_identity(tmp_path):
    """At 8 kHz and T_ERD 1 ms (fd 1736 Hz), some derived designs draw a
    single section below Nyquist.  Those variants are bit-exact copies
    with SNR_CAP_DB; every other variant is the unit's convolution."""
    assert main(["design", "--fs", "8000", "--fd", "250", "--seed", "7",
                 "--out-dir", str(tmp_path)]) == 0
    x, fs = read_wav(tmp_path / "unit.wav")
    base = DesignParams(fs=fs, fd=TERD_NOMINAL_RATIO / 0.001, seed=0, truncation_factor=8.0)
    n_identity = 0
    for seed in range(200):
        variants, rep = augment(x, fs, n_variants=2, seed=seed, t_erd_s=0.001)
        for v, snr, d in zip(variants, rep.snr_db, derive_unit_designs(replace(base, seed=seed), 2)):
            try:
                u = generate_unit(d, 0.001).samples
            except TooFewSectionsError:
                assert np.array_equal(v, x) and snr == SNR_CAP_DB
                n_identity += 1
                continue
            assert np.array_equal(v, OverlapSave(x, len(u)).convolve(u))
            ref = fftconvolve(x, u)
            assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert rep.spectra_delta_db.shape[0] == 2
    assert n_identity > 0


@pytest.mark.parametrize("x", [np.full(100, 0.3), np.array([0.5])])
def test_skewness_of_a_signal_without_variance_is_zero_without_a_warning(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = augment(x, FS, n_variants=1)
        assert _skewness(x, np.empty(len(x))) == 0.0
    assert rep.skewness[0] == 0.0


@pytest.mark.parametrize("x", [np.full(100, 0.3), np.array([0.5])])
def test_report_of_a_signal_without_variance_holds_no_nan(x):
    _, rep = augment(x, FS, n_variants=2)
    assert rep.skewness[0] == 0.0
    for name in ("snr_db", "value_histograms", "histogram_edges", "spectra_delta_db",
                 "skewness"):
        assert not np.isnan(getattr(rep, name)).any(), name


def _on_cpus(monkeypatch, n_cpus):
    """Let augment see n_cpus CPUs; returns the list of worker counts it
    then runs with, one per call."""
    widths = []

    def fan_out(work, n_workers):
        widths.append(n_workers)
        _FAN_OUT(work, n_workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(_augment_module, "_fan_out", fan_out)
    return widths


_REPORT_FIELDS = ("snr_db", "value_histograms", "histogram_edges", "spectra_delta_db",
                  "skewness")
_FAN_OUT_CASES = {
    "filtered": lambda: (_noise_with_random_pulses(20000, 1), FS, dict(seed=3)),
    "identity": lambda: (_noise_with_random_pulses(3000, 2), FS,
                         dict(base_params=DesignParams(fs=FS, fd=FS, seed=0))),
    # At 8 kHz and T_ERD 1 ms, seed 9 derives units [-, -, u, -, -, u, u],
    # where - is a design of too few sections below Nyquist: the identity.
    "mixed": lambda: (_noise_with_random_pulses(8000, 3), 8000.0,
                      dict(seed=9, t_erd_s=0.001)),
    # Every variant is searched at every lag, so workers share the
    # lazily built full search.
    "pulse-train-97": lambda: ((np.arange(20000) % 97 == 0).astype(float), FS, dict(seed=3)),
}


@pytest.mark.parametrize("case", list(_FAN_OUT_CASES))
def test_every_output_is_bit_identical_on_1_2_and_5_cpus(monkeypatch, case):
    x, fs, kwargs = _FAN_OUT_CASES[case]()
    runs = []
    for n_cpus in (1, 2, 5):
        widths = _on_cpus(monkeypatch, n_cpus)
        runs.append(augment(x, fs, n_variants=7, **kwargs))
        assert widths == [n_cpus]
    (variants, report), *others = runs
    for other_variants, other_report in others:
        assert len(other_variants) == len(variants) == 7
        for v, w in zip(variants, other_variants):
            assert v.shape == w.shape and v.tobytes() == w.tobytes()
        for name in _REPORT_FIELDS:
            a, b = getattr(report, name), getattr(other_report, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_workers_take_turns_on_the_full_search_of_a_short_input(monkeypatch):
    """An input under 5 m = 1280 samples leaves no lag outside the window:
    every variant needs the full search, which is framed once per call,
    also with one worker per variant on 2 cores and a thread switch every
    microsecond."""
    x = _noise_with_random_pulses(1000, seed=4)
    framed, searches = [], []

    class CountedOverlapSave(OverlapSave):
        def __init__(self, signal, m):
            framed.append(len(signal))
            super().__init__(signal, m)

    class KeptLagSearch(_LagSearch):
        def __init__(self, signal, m):
            super().__init__(signal, m)
            searches.append(self)
    monkeypatch.setattr(_augment_module, "OverlapSave", CountedOverlapSave)
    monkeypatch.setattr(_augment_module, "_LagSearch", KeptLagSearch)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_cpus in (1, 2, 6):
            framed.clear()
            widths = _on_cpus(monkeypatch, n_cpus)
            runs.append(augment(x, FS, n_variants=6, seed=2))
            assert widths == [n_cpus]
            assert framed == [1000, 1999]  # the input, then its autocorrelation
            assert searches[-1].full_searches == 6
    finally:
        sys.setswitchinterval(interval)
    (variants, report), *others = runs
    for other_variants, other_report in others:
        assert all(v.tobytes() == w.tobytes() for v, w in zip(variants, other_variants))
        for name in _REPORT_FIELDS:
            assert getattr(report, name).tobytes() == getattr(other_report, name).tobytes(), name


def test_a_failure_on_a_worker_thread_is_raised_by_augment(monkeypatch):
    _on_cpus(monkeypatch, 2)

    def failing_on_workers(x, buf):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return _skewness(x, buf)
    monkeypatch.setattr(_augment_module, "_skewness", failing_on_workers)
    with pytest.raises(RuntimeError, match="worker failed"):
        augment(_noise_with_random_pulses(4000, 1), FS, n_variants=2)


@pytest.mark.parametrize("cpu_count,workers", [(3, 3), (None, 1)])
def test_worker_count_falls_back_to_cpu_count(monkeypatch, cpu_count, workers):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert _worker_count(16) == workers
    assert _worker_count(2) == min(2, workers)


def test_snr_does_not_depend_on_the_blas_thread_count():
    """np.dot over a long signal splits its sum across OpenBLAS threads,
    so its last bits follow their count; augment's sums do not."""
    code = ("import numpy as np\n"
            "from capricep.augment import augment\n"
            "rng = np.random.default_rng(0)\n"
            "x = 0.1 * rng.standard_normal(160_000)\n"
            "x[rng.integers(0, len(x), len(x) // 97)] += 0.8\n"
            "print(augment(x, 16000.0, n_variants=4, seed=1)[1].snr_db.tobytes().hex())\n")
    path = [str(Path(_augment_module.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

"""All-pass filter-bank augmentation: invariants and reporting."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.stats import skew

from capricep.allpass import next_pow2
from capricep.augment import (
    HISTOGRAM_BINS,
    SNR_CAP_DB,
    _aligned_snr_db,
    _histogram,
    _skewness,
    augment,
)
from capricep.bands import band_powers, third_octave_centers, to_db
from capricep.cli import main
from capricep.design import TERD_NOMINAL_RATIO, DesignParams, derive_unit_designs, generate_unit
from capricep.errors import DesignError, SignalError, TooFewSectionsError
from capricep.fftconv import OverlapSave
from capricep.wavio import read_wav

FS = 16000.0


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
    hists, skews = [_histogram(x / peak, edges)], [_reference_skewness(x)]
    for p in derive_unit_designs(replace(base, seed=seed), n_variants):
        y = x.copy() if identity else fftconvolve(x, generate_unit(p, t_erd_s).samples)
        variants.append(y)
        snrs.append(_reference_aligned_snr_db(x, y))
        hists.append(_histogram(y / peak, edges))
        skews.append(_reference_skewness(y))
        xi = np.concatenate([x, np.zeros(len(y) - len(x))])
        deltas.append(_reference_band_level_deviation_db(xi, y, fs))
    return variants, np.array(snrs), np.stack(hists), np.stack(deltas), np.array(skews)


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
    assert _aligned_snr_db(x, y, _linear_xcorr(x, y)) == pytest.approx(expected, abs=1e-9)


def test_aligned_snr_breaks_a_tie_toward_the_negative_lag():
    """Equal |cc| at lags -2 and +2: the first in lag order wins, as an
    argmax over -(len(x) - 1) .. len(y) - 1 would pick it."""
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cc = np.zeros(len(x) + len(y) - 1)  # lag l at cc[l + 2]
    cc[4], cc[0] = 1.0, -1.0
    assert _aligned_snr_db(x, y, cc) == SNR_CAP_DB  # lag +2 would give 0 dB


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
        assert _skewness(x) == 0.0
    assert rep.skewness[0] == 0.0


@pytest.mark.parametrize("x", [np.full(100, 0.3), np.array([0.5])])
def test_report_of_a_signal_without_variance_holds_no_nan(x):
    _, rep = augment(x, FS, n_variants=2)
    assert rep.skewness[0] == 0.0
    for name in ("snr_db", "value_histograms", "histogram_edges", "spectra_delta_db",
                 "skewness"):
        assert not np.isnan(getattr(rep, name)).any(), name

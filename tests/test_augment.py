"""All-pass filter-bank augmentation: invariants and reporting."""
import numpy as np
import pytest
from scipy.signal import fftconvolve

from capricep.augment import SNR_CAP_DB, augment
from capricep.design import DesignParams, derive_unit_designs, generate_unit
from capricep.errors import DesignError, SignalError

FS = 16000.0


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
    designs = derive_unit_designs(DesignParams(fs=FS, fd=500.0, seed=4,
                                               truncation_factor=6.0), 3)
    for v, d in zip(variants, designs):
        assert np.array_equal(v, fftconvolve(x, generate_unit(d, t_erd).samples))


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
    with pytest.raises(SignalError):
        augment(np.ones(100), FS, n_variants=0)


@pytest.mark.parametrize("t_erd_s", [0.0, -0.001, float("nan"), float("inf")])
def test_non_finite_or_non_positive_t_erd_rejected(t_erd_s):
    with pytest.raises(DesignError, match="t_erd_s"):
        augment(np.ones(100), FS, t_erd_s=t_erd_s)
    identity = DesignParams(fs=FS, fd=FS, seed=0)
    with pytest.raises(DesignError, match="t_erd_s"):
        augment(np.ones(100), FS, base_params=identity, t_erd_s=t_erd_s)

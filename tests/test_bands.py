"""Band lag sums: the chirp-z evaluation against a direct cosine sum."""
import numpy as np
import pytest

from capricep.bands import band_bins, band_lag_sums, band_powers, power_spectrum, third_octave_centers


def _direct_lag_sums(spec, start, stop, n_fft, n_lags):
    lags = np.arange(n_lags)
    out = np.zeros((len(start), n_lags))
    for b, (a, z) in enumerate(zip(start, stop)):
        k = np.arange(a, z)
        out[b] = spec[k] @ np.cos(2.0 * np.pi * np.outer(k, lags) / n_fft)
    return out


@pytest.mark.parametrize("n_fft,n_lags", [(256, 1), (256, 9), (256, 64), (4096, 5), (4096, 300)])
def test_band_lag_sums_match_a_direct_cosine_sum(n_fft, n_lags):
    x = np.random.default_rng(n_fft + n_lags).standard_normal(n_fft // 2)
    spec = power_spectrum(x, n_fft)
    n_bins = n_fft // 2 + 1
    # Empty bands, one-bin bands, bands narrower and wider than n_lags,
    # and bands that touch DC and Nyquist.
    start = np.array([0, 3, 3, 7, 10, 20, n_bins - 40, 0, n_bins - 1])
    stop = np.array([0, 3, 4, 7 + max(1, n_lags // 2), 10 + 3 * n_lags, n_bins - 40, n_bins,
                     n_bins, n_bins])
    stop = np.minimum(stop, n_bins)
    got = band_lag_sums(spec, start, stop, n_fft, n_lags)
    want = _direct_lag_sums(spec, start, stop, n_fft, n_lags)
    assert got.shape == (len(start), n_lags)
    assert np.all(got[start == stop] == 0.0)
    # |S[b, l]| <= S[b, 0], the band's power: the natural scale of its row.
    scale = np.maximum(want[:, :1], np.finfo(float).tiny)
    assert np.max(np.abs(got - want) / scale) <= 1e-12


def test_lag_zero_is_the_band_power():
    fs, n_fft = 16000.0, 4096
    x = np.random.default_rng(5).standard_normal(3000)
    centers = third_octave_centers(fs)
    sums = band_lag_sums(power_spectrum(x, n_fft), *band_bins(fs, centers, n_fft), n_fft, 16)
    assert np.array_equal(sums[:, 0], band_powers(x, fs, centers, n_fft))


def test_band_power_of_a_convolution_is_the_lag_sum_against_the_kernel_autocorrelation():
    fs, n_fft = 16000.0, 8192
    rng = np.random.default_rng(6)
    x, u = rng.standard_normal(5000), rng.standard_normal(300)
    centers = third_octave_centers(fs)
    start, stop = band_bins(fs, centers, n_fft)
    sums = band_lag_sums(power_spectrum(x, n_fft), start, stop, n_fft, len(u))
    a = np.correlate(u, u, mode="full")[len(u) - 1:]
    c = np.concatenate([a[:1], 2.0 * a[1:]])
    want = band_powers(np.convolve(x, u), fs, centers, n_fft)
    np.testing.assert_allclose(sums @ c, want, rtol=1e-11)

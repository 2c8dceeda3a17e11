"""Fractional-octave band utilities shared by the analyzer and augmentor."""
from __future__ import annotations

import numpy as np

from .fftconv import next_pow2

_DB_FLOOR = -300.0
# Longest chirp-z FFT of band_lag_sums, unless 4 lags need more: a wider
# band is cut into pieces, which pads less than one power of two would.
_MAX_CONV = 4096


def third_octave_centers(fs: float, f_low: float = 25.0) -> np.ndarray:
    """Base-2 third-octave band centers from f_low up to ~0.4 fs."""
    k = np.arange(-40, 40)
    centers = 1000.0 * 2.0 ** (k / 3.0)
    return centers[(centers >= f_low) & (centers <= 0.4 * fs)]


def band_edges(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return lo, hi


def band_bins(fs: float, centers: np.ndarray, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """[start, stop) rfft-bin range of each band on an n_fft grid: the
    bins with lo <= freq < hi."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / fs)
    lo, hi = band_edges(centers)
    return (np.searchsorted(freqs, lo, side="left"),
            np.searchsorted(freqs, hi, side="left"))


def band_powers(x: np.ndarray, fs: float, centers: np.ndarray, n_fft: int) -> np.ndarray:
    """Total spectral power per band of each time-domain frame along the
    last axis of x: shape x.shape[:-1] + (len(centers),).

    Power is |rfft|^2 summed over the band's bins and scaled by 1/n so
    the sum over all bins equals the frame energy (Parseval).
    """
    return _band_sums(power_spectrum(x, n_fft), *band_bins(fs, centers, n_fft))


def power_spectrum(x: np.ndarray, n_fft: int) -> np.ndarray:
    """|rfft(x, n_fft)|^2 / n_fft along the last axis, whose bins sum to
    the frame energy."""
    return np.abs(np.fft.rfft(x, n_fft)) ** 2 / n_fft


def _band_sums(spec: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """spec summed over bins [start[b], stop[b]) along its last axis, per band b."""
    sums = np.empty(spec.shape[:-1] + (len(start),))
    for b, (lo, hi) in enumerate(zip(start, stop)):
        sums[..., b] = spec[..., lo:hi].sum(axis=-1)
    return sums


def _chirp(t: np.ndarray, n_fft: int) -> np.ndarray:
    """exp(i pi t^2 / n_fft) for integer t, reduced exactly mod 2 n_fft."""
    return np.exp(1j * np.pi / n_fft * ((t * t) % (2 * n_fft)))


def band_lag_sums(spec: np.ndarray, start: np.ndarray, stop: np.ndarray, n_fft: int,
                  n_lags: int) -> np.ndarray:
    """S[b, l] = sum over bins k in [start[b], stop[b]) of
    spec[k] cos(2 pi k l / n_fft), for lags l = 0 .. n_lags - 1.

    A kernel u of at most n_lags samples, with autocorrelation a, has
    |U(k)|^2 = a[0] + 2 sum_l a[l] cos(2 pi k l / n_fft); so on a grid
    long enough for x * u, band b of x * u holds sum_l c[l] S[b, l] with
    c = (a[0], 2 a[1], ...).  Each band is summed by chirp-z (Bluestein)
    transforms: a band of w bins takes one power-of-two FFT of at least
    w + n_lags - 1 points, a wide one several of _MAX_CONV points, and the
    pieces of one length share the chirp filter and one batched FFT.
    Column 0 is the band's power, summed directly (as band_powers does).
    """
    start, stop = np.asarray(start), np.asarray(stop)
    sums = np.zeros((len(start), n_lags))
    # Pieces (band, first bin, width) of at most max_width bins.
    max_conv = max(_MAX_CONV, next_pow2(4 * n_lags))
    max_width = max_conv - n_lags + 1
    pieces = [(b, k, min(max_width, stop[b] - k))
              for b in range(len(start)) for k in range(start[b], stop[b], max_width)]
    lengths = np.array([next_pow2(w + n_lags - 1) for _, _, w in pieces], dtype=int)
    # exp(2 pi i j l / n) = chirp(j) chirp(l) / chirp(l - j), and the chirp
    # is even in its argument, so one table serves every piece and length.
    chirp = _chirp(np.arange(max(lengths, default=0)), n_fft)
    for n_conv in np.unique(lengths):
        group = [pieces[i] for i in np.flatnonzero(lengths == n_conv)]
        # 1 / chirp at offsets 0 .. n_lags - 1, then -(n_conv - n_lags) .. -1.
        offsets = np.arange(n_conv)
        offsets[n_lags:] = n_conv - offsets[n_lags:]
        filt = np.fft.fft(np.conj(chirp[offsets]))
        frames = np.zeros((len(group), n_conv), dtype=complex)
        for row, (_, k, w) in zip(frames, group):
            row[:w] = spec[k:k + w] * chirp[:w]
        conv = np.fft.ifft(np.fft.fft(frames, axis=-1) * filt, axis=-1)[:, :n_lags]
        # A piece from bin k0: exp(2 pi i k0 l / n) chirp(l) = chirp(l + k0) / chirp(k0).
        k0 = np.array([k for _, k, _ in group])[:, None]
        turn = _chirp(np.arange(n_lags) + k0, n_fft) * np.conj(_chirp(k0, n_fft))
        np.add.at(sums, [b for b, _, _ in group], (conv * turn).real)
    sums[:, 0] = _band_sums(spec, start, stop)
    return sums


def to_db(power: np.ndarray, reference: float = 1.0) -> np.ndarray:
    ratio = np.asarray(power, dtype=float) / reference
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(ratio, 0.0))
    return np.maximum(db, _DB_FLOOR)

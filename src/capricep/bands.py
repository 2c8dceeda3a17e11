"""Fractional-octave band utilities shared by the analyzer and augmentor."""
from __future__ import annotations

import numpy as np

_DB_FLOOR = -300.0


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
    """Total spectral power per band of one time-domain frame.

    Power is |rfft|^2 summed over the band's bins and scaled by 1/n so
    the sum over all bins equals the frame energy (Parseval).
    """
    spec = np.abs(np.fft.rfft(x, n_fft)) ** 2 / n_fft
    start, stop = band_bins(fs, centers, n_fft)
    return np.array([spec[a:b].sum() for a, b in zip(start, stop)])


def mean_band_powers(frames: list[np.ndarray], fs: float, centers: np.ndarray,
                     n_fft: int) -> np.ndarray:
    """Band powers averaged (in power) across frames of equal length."""
    acc = np.zeros(len(centers))
    for f in frames:
        acc += band_powers(f, fs, centers, n_fft)
    return acc / max(1, len(frames))


def to_db(power: np.ndarray, reference: float = 1.0) -> np.ndarray:
    ratio = np.asarray(power, dtype=float) / reference
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(ratio, 0.0))
    return np.maximum(db, _DB_FLOOR)

"""Data augmentation: all-pass filtering with independent unit pulses.

Each variant is the input convolved with one randomly designed unit.
The magnitude spectrum is preserved (all-pass), so the variants sound
like the original while their waveforms differ grossly; the report
quantifies that with per-variant SNR, amplitude histograms and
per-band spectral deviation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import fftconvolve
from scipy.stats import skew

from .bands import band_level_deviation_db
from .design import TERD_NOMINAL_RATIO, DesignParams, derive_unit_designs, generate_unit
from .errors import SignalError

SNR_CAP_DB = 150.0
DEFAULT_T_ERD_S = 0.002
HISTOGRAM_BINS = 101


@dataclass(frozen=True)
class AugmentReport:
    snr_db: np.ndarray
    value_histograms: np.ndarray  # (n_variants + 1, bins); row 0 = original
    histogram_edges: np.ndarray
    spectra_delta_db: np.ndarray  # (n_variants, n_bands) per-band deviation
    skewness: np.ndarray  # original prepended: length n_variants + 1


def _aligned_snr_db(x: np.ndarray, y: np.ndarray) -> float:
    """SNR after optimal integer-lag and scalar-gain alignment."""
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


def _histogram(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(x, bins=edges)
    return counts / max(1, len(x))


def augment(
    signal: np.ndarray,
    fs: float,
    base_params: DesignParams | None = None,
    n_variants: int = 1,
    seed: int = 0,
    t_erd_s: float = DEFAULT_T_ERD_S,
) -> tuple[list[np.ndarray], AugmentReport]:
    """Filter the input with n_variants independent units.

    A base design with no section below Nyquist (fd >= fs/2) is the
    identity: variants equal the input bit-exactly.
    """
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        raise SignalError("empty input signal")
    if n_variants < 1:
        raise SignalError("n_variants must be at least 1")
    if base_params is None:
        base_params = DesignParams(
            fs=fs, fd=TERD_NOMINAL_RATIO / t_erd_s, seed=seed, truncation_factor=8.0)

    identity = base_params.fd >= fs / 2.0
    peak = float(np.max(np.abs(x))) or 1.0
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)

    variants: list[np.ndarray] = []
    snrs = np.empty(n_variants)
    hists = [_histogram(x / peak, edges)]
    deltas = []
    skews = [float(skew(x))]
    # Variants derive from ``seed`` even when base_params carries another.
    designs = derive_unit_designs(replace(base_params, seed=seed), n_variants)
    for i, p in enumerate(designs):
        if identity:
            y = x.copy()
        else:
            unit = generate_unit(p, t_erd_s)
            y = fftconvolve(x, unit.samples, mode="full")
        variants.append(y)
        snrs[i] = _aligned_snr_db(x, y)
        hists.append(_histogram(y / peak, edges))
        skews.append(float(skew(y)))
        xi = np.concatenate([x, np.zeros(len(y) - len(x))]) if len(y) > len(x) else x
        deltas.append(band_level_deviation_db(xi, y, fs))

    report = AugmentReport(
        snr_db=snrs,
        value_histograms=np.stack(hists),
        histogram_edges=edges,
        spectra_delta_db=np.stack(deltas),
        skewness=np.array(skews),
    )
    return variants, report

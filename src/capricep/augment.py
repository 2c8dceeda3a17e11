"""Data augmentation: all-pass filtering with independent unit pulses.

Each variant is the input convolved with one randomly designed unit.
The magnitude spectrum is preserved (all-pass), so the variants sound
like the original while their waveforms differ grossly; the report
quantifies that with per-variant SNR, amplitude histograms and
per-band spectral deviation.

Every variant's unit is short, so the input is framed and transformed
once, for the longest unit, by overlap-save (``fftconv.OverlapSave``),
and so is its linear autocorrelation r_xx at lags -(n-1) .. n-1, taken
with one FFT pair.  A variant y = x * u then costs one short rfft of u
and two batched irffts: y itself, and its cross-correlation with the
input, r_xx * u, which holds every lag of the SNR alignment search in
order, -(n-1) .. len(y)-1.  Band levels stay on their own report grid,
next_pow2 of the longest variant, where the input's band powers are
computed once.  A variant whose design fits fewer than two sections
below Nyquist, like a base design with fd >= fs/2, is the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
from scipy.signal import fftconvolve  # noqa: F401  unused; perfbench/spans.py patches it by name
from scipy.stats import skew

from . import bands
from .allpass import next_pow2
from .design import (
    TERD_NOMINAL_RATIO,
    DesignParams,
    derive_unit_designs,
    generate_unit,
    validate_t_erd,
)
from .errors import SignalError, TooFewSectionsError
from .fftconv import OverlapSave

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


def _aligned_snr_db(x: np.ndarray, y: np.ndarray, cc: np.ndarray) -> float:
    """SNR after optimal integer-lag and scalar-gain alignment.

    ``cc`` is the linear cross-correlation of y with x in lag order,
    lags -(len(x) - 1) .. len(y) - 1; it is overwritten.  A tie goes to
    the most negative lag, the first maximum of |cc|.
    """
    lag = int(np.argmax(np.abs(cc, out=cc))) - (len(x) - 1)
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


def _skewness(x: np.ndarray) -> float:
    """Sample skewness, 0.0 for a signal without variance (a constant or
    a single sample), where scipy returns NaN."""
    s = float(skew(x))
    return 0.0 if math.isnan(s) else s


def _unit_or_identity(p: DesignParams, t_erd_s: float) -> np.ndarray | None:
    """The samples of the unit of design ``p``, or None (the identity)
    when the design draws fewer than two sections below Nyquist."""
    try:
        return generate_unit(p, t_erd_s).samples
    except TooFewSectionsError:
        return None


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of x at lags -(n-1) .. n-1, in lag order."""
    n = len(x)
    nf = scipy.fft.next_fast_len(2 * n - 1, True)
    spec = scipy.fft.rfft(x, nf)
    r = scipy.fft.irfft(spec.real ** 2 + spec.imag ** 2, nf)
    return np.concatenate([r[nf - (n - 1):], r[:n]])


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
    identity: variants equal the input bit-exactly.  So is each variant
    whose own design draws fewer than two sections below Nyquist.
    """
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        raise SignalError("empty input signal")
    if not np.isfinite(x).all():
        raise SignalError("input signal has non-finite (NaN or inf) samples")
    if not x.any():
        raise SignalError("input signal is silent (every sample is 0)")
    if n_variants < 1:
        raise SignalError("n_variants must be at least 1")
    validate_t_erd(t_erd_s)
    if base_params is None:
        base_params = DesignParams(
            fs=fs, fd=TERD_NOMINAL_RATIO / t_erd_s, seed=seed, truncation_factor=8.0)

    identity = base_params.fd >= fs / 2.0
    peak = float(np.max(np.abs(x))) or 1.0
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    centers = bands.third_octave_centers(fs)

    # Variants derive from ``seed`` even when base_params carries another.
    designs = derive_unit_designs(replace(base_params, seed=seed), n_variants)
    units = [None if identity else _unit_or_identity(p, t_erd_s) for p in designs]
    filtered = [u for u in units if u is not None]
    m = max(map(len, filtered), default=1)
    if filtered:
        framed_x = OverlapSave(x, m)
        framed_r = OverlapSave(_autocorrelation(x), m)
    # One report grid for every variant, the longest one's, so identity
    # variants among filtered ones report on the same bands.
    n_report = next_pow2(len(x) + m - 1)
    px = bands.band_powers(x, fs, centers, n_report)
    keep = px > 0

    variants: list[np.ndarray] = []
    snrs = np.empty(n_variants)
    hists = [_histogram(x / peak, edges)]
    skews = [_skewness(x)]
    deltas = []
    for i, u in enumerate(units):
        if u is None:
            y = x.copy()
            snrs[i] = SNR_CAP_DB
        else:
            y = framed_x.convolve(u)
            snrs[i] = _aligned_snr_db(x, y, framed_r.convolve(u))
        variants.append(y)
        hists.append(_histogram(y / peak, edges))
        skews.append(_skewness(y))
        py = bands.band_powers(y, fs, centers, n_report)
        deltas.append(bands.to_db(py[keep]) - bands.to_db(px[keep]))

    report = AugmentReport(
        snr_db=snrs,
        value_histograms=np.stack(hists),
        histogram_edges=edges,
        spectra_delta_db=np.stack(deltas),
        skewness=np.array(skews),
    )
    return variants, report

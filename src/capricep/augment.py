"""Data augmentation: all-pass filtering with independent unit pulses.

Each variant is the input convolved with one randomly designed unit.
The magnitude spectrum is preserved (all-pass), so the variants sound
like the original while their waveforms differ grossly; the report
quantifies that with per-variant SNR, amplitude histograms and
per-band spectral deviation.

The input is transformed once.  On a grid of nf = next_fast_len(len(x)
+ len(y) - 1) points, where len(y) = len(x) + len(u) - 1, a variant's
spectrum is Y = X·U and its cross-spectrum with the input is
Y·conj(X) = |X|²·U.  Both products are then free of circular wrap, so
irfft(X·U) is the full linear convolution and irfft(|X|²·U) holds every
lag of the SNR alignment search, the negative ones in its wrapped tail.
X and |X|² are computed once per call; each variant costs one rfft of
its unit and two irffts.  Band levels stay on their own report grid,
next_pow2(len(y)), where the input's band powers are also computed once.
"""
from __future__ import annotations

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


def _aligned_snr_db(x: np.ndarray, y: np.ndarray, cc: np.ndarray) -> float:
    """SNR after optimal integer-lag and scalar-gain alignment.

    ``cc`` is the circular cross-correlation irfft(Y·conj(X)) on a grid
    of at least len(x) + len(y) - 1 points: lag l >= 0 sits at cc[l] and
    lag -l at cc[len(cc) - l].  It is overwritten.  Ties go to the most
    negative lag, as an argmax over lags -(len(x) - 1) .. len(y) - 1.
    """
    n = len(x)
    mag = np.abs(cc, out=cc)
    lag = int(np.argmax(mag[:len(y)]))
    if n > 1:
        tail = mag[len(cc) - (n - 1):]
        k = int(np.argmax(tail))
        if tail[k] >= mag[lag]:
            lag = k - (n - 1)
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
    n = len(x)
    peak = float(np.max(np.abs(x))) or 1.0
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    centers = bands.third_octave_centers(fs)

    variants: list[np.ndarray] = []
    snrs = np.empty(n_variants)
    hists = [_histogram(x / peak, edges)]
    deltas = []
    skews = [float(skew(x))]
    # The input's spectra are taken once per grid.  All units of one call
    # have the same length, so that is once per call.
    n_y = n_report = 0
    # Variants derive from ``seed`` even when base_params carries another.
    designs = derive_unit_designs(replace(base_params, seed=seed), n_variants)
    for i, p in enumerate(designs):
        if identity:
            y = x.copy()
            snrs[i] = SNR_CAP_DB
        else:
            u = generate_unit(p, t_erd_s).samples
            if n + len(u) - 1 != n_y:
                n_y = n + len(u) - 1
                nf = scipy.fft.next_fast_len(n + n_y - 1, True)
                spec_x = scipy.fft.rfft(x, nf)
                power_x = spec_x.real ** 2 + spec_x.imag ** 2
            spec_u = scipy.fft.rfft(u, nf)
            # A copy, so the nf-point buffer is not kept alive by a view.
            y = scipy.fft.irfft(spec_x * spec_u, nf)[:n_y].copy()
            snrs[i] = _aligned_snr_db(x, y, scipy.fft.irfft(power_x * spec_u, nf))
        variants.append(y)
        hists.append(_histogram(y / peak, edges))
        skews.append(float(skew(y)))
        if next_pow2(len(y)) != n_report:
            n_report = next_pow2(len(y))
            px = bands.band_powers(x, fs, centers, n_report)
            keep = px > 0
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

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
order, -(n-1) .. len(y)-1.  Band levels use their own report grid,
next_pow2 of the longest variant.  It holds every variant whole, so a
variant's report spectrum is exactly X U, and band b's power is
sum |X|^2 |U|^2 = sum_l c[l] S[b, l], where c = (a[0], 2 a[1], ...) comes
from the unit's autocorrelation a and S[b, l], the band's |X|^2 summed
against cos(2 pi k l / n_report), is built once per call
(``bands.band_lag_sums``).  A variant's report then costs one short FFT
pair and a small matrix-vector product, and no transform on the report
grid.  A variant whose design fits fewer than two sections below
Nyquist, like a base design with fd >= fs/2, is the identity.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bands
from .design import (
    TERD_NOMINAL_RATIO,
    DesignParams,
    derive_unit_designs,
    generate_unit,
    validate_t_erd,
)
from .errors import SignalError, TooFewSectionsError
from .fftconv import OverlapSave, autocorrelation, next_pow2

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


def __getattr__(name: str):
    # scipy.signal takes about a second to import and nothing here calls
    # it; ``fftconvolve`` stays resolvable here for perfbench/spans.py.
    if name == "fftconvolve":
        from scipy.signal import fftconvolve
        return fftconvolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _aligned_snr_db(x: np.ndarray, y: np.ndarray, cc: np.ndarray) -> float:
    """SNR after optimal integer-lag and scalar-gain alignment.

    ``cc`` is the linear cross-correlation of y with x in lag order,
    lags -(len(x) - 1) .. len(y) - 1; it is overwritten.  A tie goes to
    the most negative lag, the first maximum of |cc|.
    """
    lag = int(np.argmax(np.abs(cc, out=cc))) - (len(x) - 1)
    if 0 <= lag <= len(y) - len(x):
        ya = y[lag:lag + len(x)]  # a view: the usual case copies nothing
    else:
        # ya[i] = y[i + lag] where that sample exists, else 0.
        ya = np.zeros(len(x))
        lo = max(0, -lag)
        seg = y[lo + lag:lag + len(x)]
        ya[lo:lo + len(seg)] = seg
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
    """Sample skewness m3 / m2**1.5 from the central moments, 0.0 for a
    signal without variance (a constant or a single sample): scipy's
    test m2 <= (eps * mean)**2, under which scipy.stats.skew gives NaN."""
    mean = x.mean()
    d = x - mean
    m2 = np.einsum("i,i->", d, d) / len(x)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return 0.0
    return float(np.einsum("i,i,i->", d, d, d) / len(x) / m2 ** 1.5)


def _unit_or_identity(p: DesignParams, t_erd_s: float) -> np.ndarray | None:
    """The samples of the unit of design ``p``, or None (the identity)
    when the design draws fewer than two sections below Nyquist."""
    try:
        return generate_unit(p, t_erd_s).samples
    except TooFewSectionsError:
        return None


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
        framed_r = OverlapSave(autocorrelation(x), m)
    # One report grid for every variant, the longest one's, so identity
    # variants among filtered ones report on the same bands.  The grid
    # holds every x * u whole, so a variant's report spectrum is X U and
    # its band powers are lag_sums @ c, c from the unit's autocorrelation.
    n_report = next_pow2(len(x) + m - 1)
    lag_sums = bands.band_lag_sums(bands.power_spectrum(x, n_report),
                                   *bands.band_bins(fs, centers, n_report), n_report, m)
    px = lag_sums[:, 0]
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
            py = px
        else:
            y = framed_x.convolve(u)
            snrs[i] = _aligned_snr_db(x, y, framed_r.convolve(u))
            c = autocorrelation(u)[len(u) - 1:]
            c[1:] *= 2.0
            py = lag_sums[:, :len(u)] @ c
        variants.append(y)
        hists.append(_histogram(y / peak, edges))
        skews.append(_skewness(y))
        deltas.append(bands.to_db(py[keep]) - bands.to_db(px[keep]))

    report = AugmentReport(
        snr_db=snrs,
        value_histograms=np.stack(hists),
        histogram_edges=edges,
        spectra_delta_db=np.stack(deltas),
        skewness=np.array(skews),
    )
    return variants, report

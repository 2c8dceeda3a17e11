"""Data augmentation: all-pass filtering with independent unit pulses.

Each variant is the input convolved with one randomly designed unit.
The magnitude spectrum is preserved (all-pass), so the variants sound
like the original while their waveforms differ grossly; the report
quantifies that with per-variant SNR, amplitude histograms and
per-band spectral deviation.

Every variant's unit is short, so the input is framed and transformed
once, for the longest unit (m samples), by overlap-save
(``fftconv.OverlapSave``), and a variant y = x * u costs one short rfft
of u and one batched irfft.  The SNR aligns y to x at the first maximum
of |r_xx * u|, the cross-correlation of y with x at lags -(n-1) ..
len(y)-1, where r_xx is the input's autocorrelation.  By Cauchy-Schwarz
no lag L can reach more than |u| times the norm of the m samples of r_xx
that end at L, so one running sum of r_xx^2 per call bounds every lag
outside a window of 5 m lags around 0 (``_LagSearch``).  A variant's
search is then one circular correlation of u with the short slice of
r_xx that window reads, on a grid of about 6 m points; only when the
window's peak does not beat the bound, or the window covers every lag,
does it correlate at every lag by overlap-save.  Band levels use their own report grid,
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
from .fftconv import OverlapSave, autocorrelation, next_fast_len, next_pow2

SNR_CAP_DB = 150.0
DEFAULT_T_ERD_S = 0.002
HISTOGRAM_BINS = 101


@dataclass(frozen=True, eq=False)
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


# Half-width of the certified lag window in units of m: the window is
# lags -W .. m - 1 + W with W = 2 m.  On 10 s of speech-like input at
# 16 kHz, the bound outside it stayed below 0.44 of the window's peak.
_WINDOW_UNITS = 2


def _peak_lag(cc: np.ndarray, first_lag: int) -> int:
    """The lag of the first maximum of |cc|, whose entry 0 is lag
    ``first_lag``, so a tie goes to the most negative lag.  ``cc`` is
    overwritten with |cc|."""
    return int(np.argmax(np.abs(cc, out=cc))) + first_lag


class _LagSearch:
    """The SNR alignment lag of y = x * u, for units u of at most m samples.

    The lag is the first maximum of |cc| over lags -(n-1) .. n+k-2, where
    cc = r * u is the cross-correlation of y with x and r is x's
    autocorrelation.  By Cauchy-Schwarz, |cc[L]| <= |u| |r[L-m+1 .. L]|
    for every lag L; once per call the largest such window norm outside
    lags -W .. m-1+W is taken from one running sum of r^2.  A variant
    whose peak |cc| inside that window beats |u| times that bound has its
    lag proven by a correlation over the window alone; any other
    variant, and every variant of an input too short to leave lags
    outside the window, is searched at every lag by overlap-save.
    ``full_searches`` counts those.
    """

    def __init__(self, x: np.ndarray, m: int):
        self._x, self._m = x, m
        self._w = w = _WINDOW_UNITS * m
        self._full: OverlapSave | None = None  # built on first need
        self._near: np.ndarray | None = None  # spectrum of the window's r
        self.full_searches = 0
        n = len(x)
        if n <= 2 * w + m:
            return
        r = autocorrelation(x)  # lag L at r[n - 1 + L]
        # The window's cc reads r at lags -W-(m-1) .. m-1+W.  With lag L
        # at (L + W) mod nf on a grid of nf >= 2W + 2m - 1 points, one
        # circular convolution holds cc at lags -W .. m-1+W, unaliased, in
        # its first 2W + m points.
        self._nf = nf = next_fast_len(2 * w + 2 * m - 1)
        near = np.zeros(nf)
        near[:2 * w + m] = r[n - 1 - w:n - 1 + m + w]
        near[nf - (m - 1):] = r[n - w - m:n - 1 - w]
        self._near = np.fft.rfft(near)
        np.square(r, out=r)
        np.cumsum(r, out=r)  # now r[i] is the sum of r^2 up to index i
        # The squared norm of the m samples of r ending at index i is
        # r[i] - r[i - m], or r[i] <= r[m - 1] for i < m; lags below -W
        # end at i < n - 1 - W, and above m-1+W at i >= n + m - 1 + W.
        # Past the last index the windows only shrink, so the last index
        # stands for the lags of y's tail.
        lo, hi = n - 1 - w, n + m - 1 + w
        outside = max(r[m - 1], (r[m:lo] - r[:lo - m]).max(), (r[hi:] - r[hi - m:-m]).max())
        # np.cumsum adds in order, so each running sum is off by at most
        # len(r) * eps of the total and each difference by twice that.  The
        # other 14 len(r) eps of the total lift the bound on |cc| by at
        # least 7 len(r) eps |r| |u|, above the rounding of either FFT
        # correlation, a few eps log2(frame) sqrt(m) |r| |u| (len(r) > 10 m).
        self._outside2 = outside + 16.0 * len(r) * np.finfo(float).eps * r[-1]

    def window_cc(self, u: np.ndarray) -> np.ndarray:
        """cc at lags -W .. m-1+W, for an input that leaves lags outside."""
        cc = np.fft.irfft(self._near * np.fft.rfft(u, self._nf), self._nf)
        return cc[:2 * self._w + self._m]

    def lag(self, u: np.ndarray) -> int:
        if self._near is not None:
            cc = self.window_cc(u)
            lag = _peak_lag(cc, -self._w)
            if cc[lag + self._w] ** 2 > np.dot(u, u) * self._outside2:
                return lag
        self.full_searches += 1
        if self._full is None:
            self._full = OverlapSave(autocorrelation(self._x), self._m)
        return _peak_lag(self._full.convolve(u), 1 - len(self._x))


def _aligned_snr_db(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    """SNR after scalar-gain alignment of y, shifted by ``lag``, to x."""
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
        lags = _LagSearch(x, m)
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
            snrs[i] = _aligned_snr_db(x, y, lags.lag(u))
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

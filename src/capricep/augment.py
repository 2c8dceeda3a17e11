"""Data augmentation: all-pass filtering with independent unit pulses.

Each variant is the input convolved with one randomly designed unit.
The magnitude spectrum is preserved (all-pass), so the variants sound
like the original while their waveforms differ grossly; the report
quantifies that with per-variant SNR, amplitude histograms and
per-band spectral deviation.

Every variant's unit is short, so the input is framed and transformed
once, for the longest unit (m samples), by overlap-save
(``fftconv.OverlapSave``), and a variant y = x * u costs one short rfft
of u and an irfft per frame.  The SNR aligns y to x at the first maximum
of |r_xx * u|, the cross-correlation of y with x at lags -(n-1) ..
len(y)-1, where r_xx is the input's autocorrelation.  By Cauchy-Schwarz
no lag L can reach more than |u| times the norm of the m samples of r_xx
that end at L, so one running sum of r_xx^2 per call bounds every lag
outside a window of 5 m lags around 0 (``_LagSearch``).  A variant's
search is then one circular correlation of u with the short slice of
r_xx that window reads, on a grid of about 6 m points; only when the
window's peak does not beat the bound, or the window covers every lag,
does it correlate at every lag by overlap-save.  Band levels use their
own report grid, next_pow2 of the longest variant.  It holds every
variant whole, so a variant's report spectrum is exactly X U, and band
b's power is sum |X|^2 |U|^2 = sum_l c[l] S[b, l], where c = (a[0],
2 a[1], ...) comes from the unit's autocorrelation a and S[b, l], the
band's |X|^2 summed
against cos(2 pi k l / n_report), is built once per call
(``bands.band_lag_sums``).  A variant's report then costs one short FFT
pair and a small matrix-vector product, and no transform on the report
grid.  A variant whose design fits fewer than two sections below
Nyquist, like a base design with fd >= fs/2, is the identity.

The units, the framed input, the lag search and the band lag sums are
built serially.  The variants then run on W = min(the CPUs in
os.sched_getaffinity, n_variants) workers, the calling thread and W - 1
threads: variant i on worker i mod W, into slot i.  Their time goes to
numpy kernels that release the GIL.  The calling thread allocates every
signal-length array a worker writes, each variant's output, because
glibc gives each thread its own malloc arena and arrays allocated on
workers grow the peak RSS.  It also gives each worker one scratch chunk
of a fixed length, in which the SNR, the histogram and the skewness are
formed a chunk at a time, and which the worker's overlap-save
convolutions transform their frames through, four 4096-point frames at
a time: a worker's memory does not grow with the signal, so each of the
W workers adds a fixed amount, about 0.35 MB at m = 256.
Full lag searches, rare but for periodic or short inputs, take turns on
one framed autocorrelation and one output buffer.  No result depends on
W: each variant's arithmetic is the same on any worker, and the SNR's
sums are np.einsum's, not BLAS's.
"""
from __future__ import annotations

import os
import threading
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
# Samples of a worker's scratch chunk, through which its convolutions
# transform their frames and in which the SNR's error, y / peak and the
# skewness's deviations are formed piece by piece: a worker's memory does
# not grow with the signal.  Each piece is a numpy call that
# releases the GIL and takes it back, so much shorter chunks cost the
# workers time waiting for it.
_CHUNK = 16384


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
        self._cc: np.ndarray | None = None  # the full search's output
        self._lock = threading.Lock()  # workers share one full search
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
        """The lag of u.  Full searches take turns, so however many workers
        need one, the search holds one framed r and one output."""
        if self._near is not None:
            cc = self.window_cc(u)
            lag = _peak_lag(cc, -self._w)
            if cc[lag + self._w] ** 2 > np.dot(u, u) * self._outside2:
                return lag
        n = len(self._x)
        with self._lock:
            self.full_searches += 1
            if self._full is None:
                self._full = OverlapSave(autocorrelation(self._x), self._m)
                self._cc = np.empty(2 * n + self._m - 2)
            cc = self._full.convolve(u, self._cc[:2 * n + len(u) - 2])
            return _peak_lag(cc, 1 - n)


def _chunks(n: int, size: int) -> list[tuple[int, int]]:
    """The bounds a, b of samples 0 .. n - 1 in runs of ``size``."""
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _aligned_snr_db(x: np.ndarray, y: np.ndarray, lag: int, xx: float,
                    buf: np.ndarray) -> float:
    """SNR after scalar-gain alignment of y, shifted by ``lag``, to x, with
    xx = x . x.  The error, and the aligned y where x runs past y, are
    formed a chunk of len(buf) samples at a time in ``buf``.  The sums are
    np.einsum's, which unlike np.dot's do not depend on BLAS threads."""
    def aligned(a: int, b: int) -> np.ndarray:
        """ya[a:b], where ya[i] = y[i + lag] if that sample exists, else 0."""
        lo, hi = max(a, -lag), min(b, len(y) - lag)
        if (lo, hi) == (a, b):
            return y[a + lag:b + lag]  # a view: the usual case copies nothing
        ya = buf[:b - a]
        ya.fill(0.0)
        ya[lo - a:max(lo, hi) - a] = y[lo + lag:max(lo, hi) + lag]
        return ya

    chunks = _chunks(len(x), len(buf))
    inside = 0 <= lag <= len(y) - len(x)  # then ya is one view of y
    yy = xy = pe = 0.0
    for a, b in [(0, len(x))] if inside else chunks:
        ya = aligned(a, b)
        yy += np.einsum("i,i->", ya, ya)
        xy += np.einsum("i,i->", x[a:b], ya)
    gain = float(xy) / float(yy) if yy > 0 else 1.0
    for a, b in chunks:
        err = np.multiply(aligned(a, b), gain, out=buf[:b - a])
        np.subtract(x[a:b], err, out=err)
        pe += np.einsum("i,i->", err, err)
    if pe <= xx * 10.0 ** (-SNR_CAP_DB / 10.0):
        return SNR_CAP_DB
    return 10.0 * np.log10(xx / pe)


def _histogram(x: np.ndarray, peak: float, edges: np.ndarray,
               buf: np.ndarray) -> np.ndarray:
    """The share of x / peak in each bin of ``edges``, counted as
    np.histogram counts it: bin i holds edges[i] <= v < edges[i + 1], and
    the last bin its right edge too.  Each chunk of len(buf) samples is
    sorted in ``buf`` and counts the samples below each edge, below the
    last edge's next float for the last."""
    top = edges.copy()
    top[-1] = np.nextafter(top[-1], np.inf)
    below = np.zeros(len(edges), np.intp)
    for a, b in _chunks(len(x), len(buf)):
        v = np.divide(x[a:b], peak, out=buf[:b - a])
        v.sort()
        below += np.searchsorted(v, top)
    return np.diff(below) / max(1, len(x))


def _skewness(x: np.ndarray, buf: np.ndarray) -> float:
    """Sample skewness m3 / m2**1.5 from the central moments, 0.0 for a
    signal without variance (a constant or a single sample): scipy's
    test m2 <= (eps * mean)**2, under which scipy.stats.skew gives NaN.
    The deviations are formed a chunk of len(buf) samples at a time in
    ``buf``."""
    mean = x.mean()
    s2 = s3 = 0.0
    for a, b in _chunks(len(x), len(buf)):
        d = np.subtract(x[a:b], mean, out=buf[:b - a])
        s2 += np.einsum("i,i->", d, d)
        s3 += np.einsum("i,i,i->", d, d, d)
    m2 = s2 / len(x)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return 0.0
    return float(s3 / len(x) / m2 ** 1.5)


def _worker_count(n_variants: int) -> int:
    """W = min(the CPUs this process may run on, n_variants)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_variants)


def _fan_out(work, n_workers: int) -> None:
    """work(0) in the calling thread and work(1) .. work(W - 1) on threads
    of their own; a failure on any of them is raised here."""
    if n_workers == 1:
        work(0)
        return
    # concurrent.futures imports logging, about 6 ms: only a fan-out pays it.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(n_workers - 1) as pool:
        others = [pool.submit(work, w) for w in range(1, n_workers)]
        work(0)
    for f in others:
        f.result()


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
    px_db = bands.to_db(px[keep])
    xx = float(np.einsum("i,i->", x, x))

    # Every array a worker writes is allocated here, by the calling thread
    # (see the module docstring): the outputs and one scratch chunk per
    # worker.
    n_workers = _worker_count(n_variants)
    scratch = np.empty((n_workers, _CHUNK))
    variants = [x.copy() if u is None else np.empty(len(x) + len(u) - 1) for u in units]
    snrs = np.empty(n_variants)
    hists = np.empty((n_variants + 1, HISTOGRAM_BINS))
    skews = np.empty(n_variants + 1)
    deltas = np.empty((n_variants, len(px_db)))
    hists[0] = _histogram(x, peak, edges, scratch[0])
    skews[0] = _skewness(x, scratch[0])

    def work(first: int) -> None:
        """Variants first, first + W, ..., each into its own slots."""
        buf = scratch[first]
        for i in range(first, n_variants, n_workers):
            u, y = units[i], variants[i]
            if u is None:
                snrs[i] = SNR_CAP_DB
                py = px
            else:
                framed_x.convolve(u, y, buf)
                snrs[i] = _aligned_snr_db(x, y, lags.lag(u), xx, buf)
                c = autocorrelation(u)[len(u) - 1:]
                c[1:] *= 2.0
                py = lag_sums[:, :len(u)] @ c
            hists[i + 1] = _histogram(y, peak, edges, buf)
            skews[i + 1] = _skewness(y, buf)
            deltas[i] = bands.to_db(py[keep]) - px_db

    _fan_out(work, n_workers)
    report = AugmentReport(snr_db=snrs, value_histograms=hists, histogram_edges=edges,
                           spectra_delta_db=deltas, skewness=skews)
    return variants, report

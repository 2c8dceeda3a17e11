"""FFT convolution and correlation, on numpy.fft alone.

Both convolutions cut x into overlapping frames.  Frames are L =
max(4096, next_pow2(8 m)) points long, m the longest kernel, and
overlap by m - 1, so after the m - 1 wrapped samples are dropped each
frame yields a hop of L - m + 1 output samples; L depends only on m,
which keeps every FFT short however long x is.  When the whole
convolution fits in L points it is one frame of next_fast_len(len(x) +
m - 1) points with nothing dropped.  Frames are filled (``fill``),
transformed and written a bounded number at a time through small
buffers, so neither convolution holds a padded copy of x or the samples
of every frame; each frame's rfft and irfft row is bit-identical to the
batched one, so the output does not depend on how many frames go at a
time.

``convolve(x, kernel)`` is the one-kernel convolution of the simulator
and the analyzer.  It keeps no frame spectra: it fills, transforms,
multiplies and writes a few frames at a time into the caller's ``out``,
dividing x by ``scale`` as it fills them.  ``OverlapSave(x, m)``
transforms the frames once and keeps their spectra; its ``convolve(k)``
then costs one rfft of k and an irfft per frame for any kernel of at
most m samples, which is what augment's many kernels need.  It
transforms its frames through the caller's ``work`` buffer when given
one, which augment preallocates on the calling thread so that its
workers allocate no signal-length array.  Both give the same bits for
the same x and kernel.

This module holds both FFT length rules: ``next_pow2`` for the
overlap-save frames and the power-of-two grids of the other modules,
and ``next_fast_len`` for a single-frame transform, which
``autocorrelation`` uses too.
"""
from __future__ import annotations

import numpy as np

# Shortest overlap-save frame: below this, per-frame overhead outweighs
# the shorter transforms.
_MIN_FRAME = 4096
# Frames transformed at a time, through buffers of this many frames and
# spectra: the working memory of the framing and of ``convolve`` does not
# grow with n.  With two, a convolve on 4096-point frames traces 0.23 MB.
_CHUNK_FRAMES = 2


def next_pow2(n: int) -> int:
    return 1 << max(1, int(np.ceil(np.log2(max(2, n)))))


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth length 2**a * 3**b * 5**c >= n (n >= 1),
    which pocketfft's real transforms handle fastest; it equals
    scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest power-of-two multiple of p35 that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of x at lags -(n-1) .. n-1, in lag order."""
    n = len(x)
    nf = next_fast_len(2 * n - 1)
    spec = np.fft.rfft(x, nf)
    power = spec.real ** 2
    power += spec.imag ** 2
    spec.real, spec.imag = power, 0.0  # |X|^2 in place of X: no third buffer
    del power
    r = np.fft.irfft(spec, nf)
    del spec
    return np.concatenate([r[nf - (n - 1):], r[:n]])


def fill(out: np.ndarray, x: np.ndarray, at: int, scale: float = 1.0) -> np.ndarray:
    """x[at : at + len(out)] / scale written into out, with zeros where x
    has no sample; at may be negative."""
    lo = min(max(at, 0), len(x))
    hi = max(min(at + len(out), len(x)), lo)
    out[:lo - at] = 0.0
    np.divide(x[lo:hi], scale, out=out[lo - at:hi - at])
    out[hi - at:] = 0.0
    return out


def _grid(n: int, m: int) -> tuple[int, int]:
    """(frame, skip) for a signal of n samples and kernels of at most m."""
    frame = max(_MIN_FRAME, next_pow2(8 * m))
    if n + m - 1 <= frame:
        return next_fast_len(n + m - 1), 0
    return frame, m - 1


def _check(x: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or m < 1:
        raise ValueError("need a nonempty 1-D signal and a kernel length >= 1")
    return x


def _output(out: np.ndarray | None, n_out: int) -> np.ndarray:
    if out is None:
        return np.empty(n_out)
    if len(out) != n_out:
        raise ValueError(f"out holds {len(out)} samples, not {n_out}")
    return out


def _keep(out: np.ndarray, frames: np.ndarray, at: int, skip: int) -> None:
    """Write the frames that start at output sample ``at``: each keeps its
    samples from ``skip`` on, a hop of them, and only the last frame of
    all may keep less than a hop."""
    hop = frames.shape[1] - skip
    stop = min(at + len(frames) * hop, len(out))
    whole, rest = divmod(stop - at, hop)
    out[at:stop - rest].reshape(whole, hop)[:] = frames[:whole, skip:]
    if rest:
        out[stop - rest:stop] = frames[whole, skip:skip + rest]


def convolve(x: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None,
             scale: float = 1.0) -> np.ndarray:
    """The full linear convolution of x / scale with ``kernel``, its
    len(x) + len(kernel) - 1 samples written into ``out`` (new by
    default), bit-identical to ``OverlapSave(x / scale,
    len(kernel)).convolve(kernel)``."""
    m = len(kernel)
    x = _check(x, m)
    n_out = len(x) + m - 1
    out = _output(out, n_out)
    frame, skip = _grid(len(x), m)
    hop = frame - skip
    spec = np.fft.rfft(kernel, frame)
    n_frames = -(-n_out // hop)
    rows = min(_CHUNK_FRAMES, n_frames)
    frames = np.empty((rows, frame))
    prod = np.empty((rows, len(spec)), complex)
    for f in range(0, n_frames, rows):
        r = min(rows, n_frames - f)
        for j, row in enumerate(frames[:r]):
            fill(row, x, (f + j) * hop - skip, scale)
        np.fft.rfft(frames[:r], axis=-1, out=prod[:r])
        np.multiply(prod[:r], spec, out=prod[:r])
        np.fft.irfft(prod[:r], frame, axis=-1, out=frames[:r])
        _keep(out, frames[:r], f * hop, skip)
    return out


class OverlapSave:
    """The framed spectrum of one signal, to convolve with many kernels."""

    def __init__(self, x: np.ndarray, m: int):
        x = _check(x, m)
        self.n = len(x)
        self.m = m
        self.frame, self.skip = _grid(self.n, m)
        hop = self.frame - self.skip
        n_frames = -(-(self.n + m - 1) // hop)
        # Frame f holds x[f hop - skip .. f hop - skip + frame - 1], with
        # zeros where x has no sample.
        self._spec = np.empty((n_frames, self.frame // 2 + 1), complex)
        rows = min(_CHUNK_FRAMES, n_frames)
        frames = np.empty((rows, self.frame))
        for f in range(0, n_frames, rows):
            r = min(rows, n_frames - f)
            for j, row in enumerate(frames[:r]):
                fill(row, x, (f + j) * hop - self.skip)
            np.fft.rfft(frames[:r], axis=-1, out=self._spec[f:f + r])

    def convolve(self, kernel: np.ndarray, out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
        """The full linear convolution of the signal with ``kernel``, its
        n + len(kernel) - 1 samples written into ``out`` (new by default).
        The frames go through ``work``, as many at a time as it holds
        whole, or through a new buffer of _CHUNK_FRAMES frames when it
        holds none."""
        k = len(kernel)
        if not 1 <= k <= self.m:
            raise ValueError(f"kernel length {k} outside 1 .. {self.m}")
        n_out = self.n + k - 1
        out = _output(out, n_out)
        hop = self.frame - self.skip
        spec = np.fft.rfft(kernel, self.frame)
        n_frames = -(-n_out // hop)  # a kernel shorter than m may need fewer
        if work is None or len(work) < self.frame:
            work = np.empty(min(_CHUNK_FRAMES, n_frames) * self.frame)
        rows = min(len(work) // self.frame, n_frames)
        frames = work[:rows * self.frame].reshape(rows, self.frame)
        prod = np.empty((rows, len(spec)), complex)
        for f in range(0, n_frames, rows):
            r = min(rows, n_frames - f)
            np.multiply(self._spec[f:f + r], spec, out=prod[:r])
            np.fft.irfft(prod[:r], self.frame, axis=-1, out=frames[:r])
            _keep(out, frames[:r], f * hop, self.skip)
        return out

"""FFT convolution and correlation, on numpy.fft alone.

``OverlapSave(x, m)`` cuts x into overlapping frames once and keeps
their spectra; ``convolve(k)`` then returns the full linear convolution
x * k of any kernel of at most m samples for one rfft of k and an irfft
per frame.  Frames are L = max(4096, next_pow2(8 m)) points long
and overlap by m - 1, so after the m - 1 wrapped samples are dropped
each frame yields a hop of L - m + 1 output samples; L depends only on
m, which keeps every FFT short however long x is.  When the whole
convolution fits in L points it is one frame of next_fast_len(len(x) +
m - 1) points with nothing dropped.  The framing and ``convolve`` both
transform a bounded number of frames at a time through small buffers, so
neither holds a padded copy of x or the samples of every frame; each
frame's rfft and irfft row is bit-identical to the batched one, so the
output does not depend on how many frames go at a time.  ``convolve``
writes into the caller's ``out``, and transforms its frames through the
caller's ``work`` buffer, when given them.  It is the one convolution
path of the simulator, the analyzer and augment, which preallocates
both on the calling thread so that its workers allocate no
signal-length array.

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


class OverlapSave:
    """The framed spectrum of one signal, to convolve with many kernels."""

    def __init__(self, x: np.ndarray, m: int):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size == 0 or m < 1:
            raise ValueError("need a nonempty 1-D signal and a kernel length >= 1")
        self.n = len(x)
        self.m = m
        n_out = self.n + m - 1
        frame = max(_MIN_FRAME, next_pow2(8 * m))
        if n_out <= frame:
            frame, self.skip = next_fast_len(n_out), 0
        else:
            self.skip = m - 1
        self.frame = frame
        hop = frame - self.skip
        n_frames = -(-n_out // hop)
        # Frame f holds x[f hop - skip .. f hop - skip + frame - 1], with
        # zeros where x has no sample.
        self._spec = np.empty((n_frames, frame // 2 + 1), complex)
        rows = min(_CHUNK_FRAMES, n_frames)
        frames = np.empty((rows, frame))
        for f in range(0, n_frames, rows):
            r = min(rows, n_frames - f)
            for j, row in enumerate(frames[:r]):
                at = (f + j) * hop - self.skip
                lo, hi = max(at, 0), min(at + frame, self.n)
                row[:lo - at] = 0.0
                row[lo - at:hi - at] = x[lo:hi]
                row[hi - at:] = 0.0
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
        if out is None:
            out = np.empty(n_out)
        elif len(out) != n_out:
            raise ValueError(f"out holds {len(out)} samples, not {n_out}")
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
            # Frame f keeps its samples from ``skip`` on: output f*hop on.
            # Only the last frame of all may keep less than a hop.
            at, stop = f * hop, min((f + r) * hop, n_out)
            whole, rest = divmod(stop - at, hop)
            out[at:stop - rest].reshape(whole, hop)[:] = frames[:whole, self.skip:]
            if rest:
                out[stop - rest:stop] = frames[whole, self.skip:self.skip + rest]
        return out

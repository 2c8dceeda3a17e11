"""FFT convolution and correlation, on numpy.fft alone.

``OverlapSave(x, m)`` cuts x into overlapping frames once and keeps
their spectra; ``convolve(k)`` then returns the full linear convolution
x * k of any kernel of at most m samples for one rfft of k and one
batched irfft.  Frames are L = max(4096, next_pow2(8 m)) points long
and overlap by m - 1, so after the m - 1 wrapped samples are dropped
each frame yields a hop of L - m + 1 output samples; L depends only on
m, which keeps every FFT short however long x is.  When the whole
convolution fits in L points it is one frame of next_fast_len(len(x) +
m - 1) points with nothing dropped.

This module holds both FFT length rules: ``next_pow2`` for the
overlap-save frames and the power-of-two grids of the other modules,
and ``next_fast_len`` for a single-frame transform, which
``autocorrelation`` uses too.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Shortest overlap-save frame: below this, per-frame overhead outweighs
# the shorter transforms.
_MIN_FRAME = 4096


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
    r = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nf)
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
        padded = np.zeros((n_frames - 1) * hop + frame)
        padded[self.skip:self.skip + self.n] = x
        self._spec = np.fft.rfft(sliding_window_view(padded, frame)[::hop], axis=-1)

    def convolve(self, kernel: np.ndarray) -> np.ndarray:
        """Full linear convolution of the signal with ``kernel``."""
        k = len(kernel)
        if not 1 <= k <= self.m:
            raise ValueError(f"kernel length {k} outside 1 .. {self.m}")
        out = np.fft.irfft(self._spec * np.fft.rfft(kernel, self.frame), self.frame, axis=-1)
        return out[:, self.skip:].reshape(-1)[:self.n + k - 1]

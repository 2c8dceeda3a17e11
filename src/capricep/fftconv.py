"""Overlap-save convolution of one long signal with many short kernels.

``OverlapSave(x, m)`` cuts x into overlapping frames once and keeps
their spectra; ``convolve(k)`` then returns the full linear convolution
x * k of any kernel of at most m samples for one rfft of k and one
batched irfft.  Frames are L = max(4096, next_pow2(8 m)) points long
and overlap by m - 1, so after the m - 1 wrapped samples are dropped
each frame yields a hop of L - m + 1 output samples; L depends only on
m, which keeps every FFT short however long x is.  When the whole
convolution fits in L points it is one frame of next_fast_len(len(x) +
m - 1) points with nothing dropped.
"""
from __future__ import annotations

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .allpass import next_pow2

# Shortest overlap-save frame: below this, per-frame overhead outweighs
# the shorter transforms.
_MIN_FRAME = 4096


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
            frame, self.skip = scipy.fft.next_fast_len(n_out, True), 0
        else:
            self.skip = m - 1
        self.frame = frame
        hop = frame - self.skip
        n_frames = -(-n_out // hop)
        padded = np.zeros((n_frames - 1) * hop + frame)
        padded[self.skip:self.skip + self.n] = x
        self._spec = scipy.fft.rfft(sliding_window_view(padded, frame)[::hop], axis=-1)

    def convolve(self, kernel: np.ndarray) -> np.ndarray:
        """Full linear convolution of the signal with ``kernel``."""
        k = len(kernel)
        if not 1 <= k <= self.m:
            raise ValueError(f"kernel length {k} outside 1 .. {self.m}")
        out = scipy.fft.irfft(self._spec * scipy.fft.rfft(kernel, self.frame),
                              self.frame, axis=-1)
        return out[:, self.skip:].reshape(-1)[:self.n + k - 1]

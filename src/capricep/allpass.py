"""All-pass building blocks: single sections and signed cascades.

A section is a real second-order all-pass realized from the conjugate
pole pair {z, z*} with

    z = exp(-pi * bandwidth / fs + 1j * 2 * pi * center / fs).

Its transfer function is (a2 + a1 e^{-jw} + e^{-2jw}) / A(e^{jw}) with
A(e^{jw}) = 1 + a1 e^{-jw} + a2 e^{-2jw}, a1 = -2 r cos(theta) and
a2 = r^2 for z = r e^{j theta}.  The numerator is e^{-2jw} times the
conjugate of A, so the phase is

    -2w - 2 angle(A) = -2w - 2 arctan2(-(a1 sin w + a2 sin 2w),
                                       1 + a1 cos w + a2 cos 2w).

It needs no unwrapping: A = (1 - z e^{-jw})(1 - z* e^{-jw}), and each
first-order factor has real part 1 - r cos(.) > 0 for r < 1, so its
angle lies in (-pi/2, pi/2) and the sum of the two lies in (-pi, pi),
where arctan2 returns it exactly.  The phase is therefore continuous
in frequency and exact for cascades of thousands of sections.
``time_sign = -1`` realizes the anti-causal (time-reversed) section
purely as a negated phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError, SignalError

# Sections processed per block when accumulating cascade phase.  A
# block holds two (block, n_fft/2 + 1) float64 arrays, so peak memory
# is ~2 * block * (n_fft/2 + 1) * 8 bytes (17 MB at n_fft 16384).
_PHASE_BLOCK = 128


@dataclass(frozen=True)
class AllPassSection:
    """One all-pass stage: conjugate pole pair plus a time direction."""

    center_freq_hz: float
    bandwidth_hz: float
    time_sign: int = 1

    def validate(self, fs: float) -> None:
        if not 0.0 < self.center_freq_hz < fs / 2.0:
            raise DesignError(
                f"center_freq_hz={self.center_freq_hz} outside (0, fs/2) for fs={fs}"
            )
        if self.bandwidth_hz <= 0.0:
            raise DesignError(f"bandwidth_hz={self.bandwidth_hz} must be > 0")
        if self.time_sign not in (1, -1):
            raise DesignError(f"time_sign={self.time_sign} must be +1 or -1")


@dataclass(frozen=True)
class CascadeResponse:
    """Phase of an all-pass cascade on a dense FFT grid.

    Only the phase is stored; the magnitude is identically 1.  The
    phase is kept on the non-negative-frequency half grid (bins 0 to
    n_fft/2 inclusive), which pins conjugate symmetry exactly.
    """

    phase_half: np.ndarray
    fft_length: int
    sample_rate_hz: float


def _sections_phase_half(
    centers: np.ndarray,
    bandwidths: np.ndarray,
    signs: np.ndarray,
    fs: float,
    n_fft: int,
) -> np.ndarray:
    """Sum of per-section phases on the half grid, blocked over sections."""
    omega = 2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
    # cos(k w) and sin(k w) for k = 0, 1, 2, shared by every section.
    k_omega = np.outer(np.arange(3), omega)
    cos_kw, sin_kw = np.cos(k_omega), np.sin(k_omega)
    # Rows [1, a1, a2]: A(e^{jw}) = sum_k coef[k] e^{-jkw}.
    radii = np.exp(-np.pi * bandwidths / fs)
    coef = np.column_stack([np.ones_like(radii),
                            -2.0 * radii * np.cos(2.0 * np.pi * centers / fs),
                            radii * radii])
    # -2w per causal section; signs make it -2w * sum(signs).
    phase = -2.0 * omega * float(np.sum(signs))
    shape = (min(len(centers), _PHASE_BLOCK), len(omega))
    re, im = np.empty(shape), np.empty(shape)
    # einsum, not matmul or @: with BLAS threads a paper-default unit
    # intermittently took 0.16 s instead of 0.02 s on a 2-core host.
    for start in range(0, len(centers), _PHASE_BLOCK):
        sl = slice(start, start + _PHASE_BLOCK)
        k = len(coef[sl])
        np.einsum('ik,kj->ij', coef[sl], cos_kw, out=re[:k])
        np.einsum('ik,kj->ij', -coef[sl], sin_kw, out=im[:k])
        phase -= 2.0 * np.einsum('i,ij->j', signs[sl], np.arctan2(im[:k], re[:k], out=re[:k]))
    return phase


def cascade_phase(sections: list[AllPassSection], fs: float, n_fft: int) -> CascadeResponse:
    """Phase response of a signed cascade (sum of section phases)."""
    _check_n_fft(n_fft)
    for s in sections:
        s.validate(fs)
    if not sections:
        return CascadeResponse(np.zeros(n_fft // 2 + 1), n_fft, fs)
    centers = np.array([s.center_freq_hz for s in sections], dtype=float)
    bandwidths = np.array([s.bandwidth_hz for s in sections], dtype=float)
    signs = np.array([s.time_sign for s in sections], dtype=float)
    half = _sections_phase_half(centers, bandwidths, signs, fs, n_fft)
    return CascadeResponse(half, n_fft, fs)


def impulse_response(resp: CascadeResponse) -> tuple[np.ndarray, int]:
    """Real impulse response of a cascade, rotated to the grid center.

    Returns (samples, center_index) where center_index = fft_length // 2.
    The rotation puts the circular energy centroid at the center so the
    two-sided exponential tails do not wrap through the array edges.
    """
    n = resp.fft_length
    spectrum = np.exp(1j * resp.phase_half)
    # Nyquist and DC bins of a real response must be real.
    for idx in (0, len(spectrum) - 1):
        if abs(spectrum[idx].imag) > 1e-8:
            raise SignalError("phase symmetry violated: complex DC/Nyquist bin")
    h = np.fft.irfft(spectrum, n)
    # Circular energy centroid via the angular mean of |h|^2.
    energy = h * h
    centroid = np.sum(energy * np.exp(2j * np.pi * np.arange(n) / n))
    shift_from = int(np.round(np.angle(centroid) / (2.0 * np.pi) * n)) % n
    center_index = n // 2
    h = np.roll(h, center_index - shift_from)
    return h, center_index


def _check_n_fft(n_fft: int) -> None:
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise SignalError(f"n_fft={n_fft} is not a power of two")

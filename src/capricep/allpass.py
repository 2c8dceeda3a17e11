"""All-pass building blocks: signed cascades of second-order sections.

A cascade's sections are one numpy record array of dtype SECTION_DTYPE,
a row (center_freq_hz, bandwidth_hz, time_sign) per section.  A section
is a real second-order all-pass realized from the conjugate pole pair
{z, z*} with

    z = r e^{j theta} = exp(-pi * bandwidth / fs + 1j * 2 * pi * center / fs).

Its transfer function is (a2 + a1 e^{-jw} + e^{-2jw}) / A(e^{jw}) with
A(e^{jw}) = (1 - z e^{-jw})(1 - z* e^{-jw}), a1 = -2 r cos(theta) and
a2 = r^2.  The numerator is e^{-2jw} times the conjugate of A, so the
phase is -2w - 2 angle(A).  For r < 1 each factor's logarithm is the
power series log(1 - z e^{-jw}) = -sum_n z^n e^{-jnw} / n, and over the
pair the angles sum to angle(A) = 2 sum_{n>=1} r^n cos(n theta) sin(n w) / n.
``time_sign = -1`` realizes the anti-causal (time-reversed) section
purely as a negated phase, so a cascade with signs s_i has the phase

    -2 w S - 4 sum_{n>=1} sin(n w) D_n / n,   S = sum_i s_i,
                                              D_n = Re sum_i s_i z_i^n,

a sine series that is continuous in frequency and needs no unwrapping.
On the n_fft-point grid sin(n w) is n_fft-periodic in n, so the
coefficients c[n] = D_n / n fold mod n_fft and one rfft gives every
bin: phase = -2 w S + 4 Im(rfft(c)).  With n = h B + l, D is one real
matrix product per block, Re((s z^(hB)) @ z^l), whose factors come from
repeated multiplication anchored on powers z^m with the angle m theta
reduced mod 2 pi exactly.  The series stops where the terms left out
add less than _TAIL_RAD to the phase; its length N grows as
1/bandwidth (about 11,400 terms for the paper's 44.1 kHz, fd 40
design), and the work is sections * N multiply-adds whatever n_fft.

Against an 80-bit evaluation of the per-pole arctan2 formula the
series' phase erred by at most 4e-14 rad for the 16 kHz, fd 100 design
and 7e-13 rad for 44.1 kHz, fd 10, where one arctan2 of A per section
and bin, the kernel it replaces, erred by 3e-13 and 2.5e-10 rad.

impulse_response rotates the rendered response so that its circular
energy centroid, read from the spectrum it renders, sits at the grid
center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, SignalError

# The series is summed in rows of at most _ROW_TERMS terms, _ROW_BLOCK
# rows and _PHASE_BLOCK sections at a time.  A block's three complex
# power arrays hold at most 128 x 1024, 128 x 512 and 128 x 512 entries
# (4.2 MB), and the next block's are made before they are freed: about
# 8.4 MB whatever the section and term counts.  Beside them the kernel
# holds a block's anchors (0.6 MB at the MAX_SYNTHESIS_FFT corner of
# design, a few times that while they are computed) and a few n_fft-point
# arrays: c, its rfft and the phase.  At that corner (fs 44.1 kHz, fd
# 0.6 Hz: 36,776 sections, 1.1e6 terms, n_fft 2**20) the traced peak
# was 31 MB, where the arctan2 kernel's blocks alone took 1.07 GB.
_ROW_TERMS = 128
_ROW_BLOCK = 128
_PHASE_BLOCK = 512

# Bound on the phase (rad) of all the series terms left out.
_TAIL_RAD = 1e-15

# Most series terms.  The count grows as 1/bandwidth, and this cap
# refuses sections narrower than about 1.3e-6 * fs (0.06 Hz at 44.1 kHz),
# a tenth of the bandwidth at the MAX_SYNTHESIS_FFT corner of design.
_MAX_TERMS = 2 ** 23


# One row per section; time_sign -1 is the time-reversed section.  The
# np.record type lets each row read its fields as attributes without the
# cost of a np.recarray view.
SECTION_DTYPE = np.dtype((np.record, [("center_freq_hz", float), ("bandwidth_hz", float),
                                      ("time_sign", np.int64)]))
# The same fields as floats: cascade_phase checks rows in this form, so a
# fractional time_sign is refused, not cast to an integer first.
_FLOAT_ROWS = np.dtype([(name, float) for name in SECTION_DTYPE.names])


@dataclass(frozen=True, eq=False)
class CascadeResponse:
    """Phase of an all-pass cascade on a dense FFT grid.

    Only the phase is stored; the magnitude is identically 1.  The
    phase is kept on the non-negative-frequency half grid (bins 0 to
    n_fft/2 inclusive), which pins conjugate symmetry exactly and fixes
    n_fft = 2 (len(phase_half) - 1).
    """

    phase_half: np.ndarray


def _pole_powers(f_hi: np.ndarray, f_lo: np.ndarray, log_r: np.ndarray, fs: float,
                 m: np.ndarray) -> np.ndarray:
    """(len(m), sections) array of z_i**m, with the angle m * theta_i
    reduced mod 2 pi exactly: m * f_hi is exact for m < 2**29, fmod is
    exact, and m * f_lo is at most f_i / 2 for m <= _MAX_TERMS.  A few
    powers per section, so the complex exp costs little here; the large
    power tables come from _powers."""
    m = m[:, None]
    angle = (np.fmod(m * f_hi, fs) + m * f_lo) * (2.0 * np.pi / fs)
    return np.exp(m * log_r + 1j * angle)


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """(count, len(base)) array of base**j, j < count, by doubling; row j
    carries about j times the rounding of base."""
    out = np.empty((count, len(base)), dtype=complex)
    out[0] = 1.0
    step, k = base, 1
    while k < count:
        np.multiply(out[:min(k, count - k)], step, out=out[k:2 * k])
        k *= 2
        if k < count:
            step = step * step
    return out


def _sections_phase_half(
    centers: np.ndarray,
    bandwidths: np.ndarray,
    signs: np.ndarray,
    fs: float,
    n_fft: int,
) -> np.ndarray:
    """Sum of per-section phases on the half grid, by the sine series."""
    # Pole radii r_i = exp(log_r_i).  Below e^-700 every power r^n, n >= 1,
    # is 0 in double precision; the floor keeps an infinite bandwidth's
    # 0 * log_r finite.
    log_r = np.maximum(bandwidths * (-np.pi / fs), -700.0)
    # For I sections the terms past N add at most 4 I r^N / (N (1 - r)),
    # r = exp(-a) the largest radius.  That is below _TAIL_RAD once
    # a N + ln N >= log_tol; two fixed-point steps from log_tol / a land
    # just above the root.
    a_min = -float(log_r.max())
    log_tol = math.log(4.0 * len(log_r) / (_TAIL_RAD * -math.expm1(-a_min)))
    if a_min * _MAX_TERMS + math.log(_MAX_TERMS) < log_tol:
        raise DesignError(
            f"bandwidth {float(bandwidths.min()):g} Hz is too narrow at fs {fs:g}: "
            f"its phase series needs more than {_MAX_TERMS} terms")
    n_max = log_tol / a_min
    for _ in range(2):
        n_max = (log_tol - math.log(n_max)) / a_min
    # B terms per row, about sqrt(N): few doubling steps for short series.
    terms = min(_ROW_TERMS, 1 << max(4, math.isqrt(int(n_max)).bit_length()))
    rows = int(n_max) // terms + 1
    # The centers rounded to float32 (24 significant bits), and the rest.
    f_hi = centers.astype(np.float32).astype(float)
    f_lo = centers - f_hi
    # Powers 1 and B of each pole, then z^(h0 B) at each row block's start.
    starts = range(0, rows, _ROW_BLOCK)
    m = np.array([1, terms, *(h0 * terms for h0 in starts)], dtype=float)
    c = np.zeros(n_fft)  # D_n / n, folded mod n_fft
    for start in range(0, len(centers), _PHASE_BLOCK):
        sl = slice(start, start + _PHASE_BLOCK)
        k = min(_PHASE_BLOCK, len(centers) - start)
        poles = _pole_powers(f_hi[sl], f_lo[sl], log_r[sl], fs, m)
        anchors = signs[sl] * poles[2:]
        # z^l for l < B beside z^(jB) for j < _ROW_BLOCK.
        powers = _powers(poles[:2].ravel(), max(terms, min(rows, _ROW_BLOCK)))
        # D_n for n = h B + l is Re((s z^(hB)) @ z^l): one real GEMM of
        # interleaved (re, im) columns against (re, -im) rows.  On a
        # 2-core host, default BLAS threads timed the kernel as one did.
        lo = np.conjugate(powers[:terms, :k]).view(float).T
        for h0, anchor in zip(starts, anchors):
            hi = powers[:rows - h0, k:] * anchor
            d = (hi.view(float) @ lo).ravel()
            n0 = h0 * terms
            n = np.arange(n0, n0 + len(d), dtype=float)
            n[0] = n[0] or np.inf  # c[0] = 0
            d /= n
            # sin(n w) is n_fft-periodic on the grid.  A block spans
            # _ROW_BLOCK * B terms, both powers of two, so it either fits
            # in c or starts at 0.
            at = n0 % n_fft
            if at + len(d) <= n_fft:
                c[at:at + len(d)] += d
            else:
                c += np.pad(d, (0, -len(d) % n_fft)).reshape(-1, n_fft).sum(axis=0)
    # -2 w per causal section; signs make it -2 w * sum(signs).
    slope = -4.0 * np.pi * float(signs.sum()) / n_fft
    return slope * np.arange(n_fft // 2 + 1) + 4.0 * np.fft.rfft(c).imag


def cascade_phase(sections, fs: float, n_fft: int) -> CascadeResponse:
    """Phase response of a signed cascade (sum of section phases).

    ``sections`` is a SECTION_DTYPE array or a sequence of
    (center_freq_hz, bandwidth_hz, time_sign) rows.
    """
    _check_n_fft(n_fft)
    sections = np.asarray(sections, _FLOAT_ROWS)
    centers, bandwidths, signs = (sections[name] for name in SECTION_DTYPE.names)
    checks = (((0.0 < centers) & (centers < fs / 2.0), f"outside (0, fs/2) for fs={fs}"),
              (bandwidths > 0.0, "must be > 0"),  # also refuses NaN
              (np.abs(signs) == 1, "must be +1 or -1"))
    for name, (ok, rule) in zip(SECTION_DTYPE.names, checks):
        if not ok.all():
            raise DesignError(f"{name}={sections[name][np.argmin(ok)]} {rule}")
    if not len(sections):
        return CascadeResponse(np.zeros(n_fft // 2 + 1))
    return CascadeResponse(_sections_phase_half(centers, bandwidths, signs, fs, n_fft))


def impulse_response(resp: CascadeResponse) -> tuple[np.ndarray, int]:
    """Real impulse response of a cascade, rotated to the grid center.

    Returns (samples, center_index) where center_index = n_fft // 2.
    The rotation puts the circular energy centroid at the center so the
    two-sided exponential tails do not wrap through the array edges.
    """
    n = 2 * (len(resp.phase_half) - 1)
    _check_n_fft(n)
    # exp(j phase) from real cos and sin: numpy's complex exp is slower,
    # and both gave bit-identical responses on the grids tried.
    spectrum = np.empty(len(resp.phase_half), dtype=complex)
    np.cos(resp.phase_half, out=spectrum.real)
    np.sin(resp.phase_half, out=spectrum.imag)
    # Nyquist and DC bins of a real response must be real.
    for idx in (0, len(spectrum) - 1):
        if abs(spectrum[idx].imag) > 1e-8:
            raise SignalError("phase symmetry violated: complex DC/Nyquist bin")
    h = np.fft.irfft(spectrum, n)
    # Circular energy centroid: the angle of sum_n h[n]^2 e^{j 2 pi n / N},
    # which for a real h is (2 / N) sum_k H[k] conj(H[k + 1]) over the
    # half spectrum (Parseval with H shifted by one bin).
    angle = np.angle(np.vdot(spectrum[1:], spectrum[:-1]))
    shift_from = int(np.round(angle / (2.0 * np.pi) * n)) % n
    center_index = n // 2
    h = np.roll(h, center_index - shift_from)
    return h, center_index


def _check_n_fft(n_fft: int) -> None:
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise SignalError(f"n_fft={n_fft} is not a power of two")

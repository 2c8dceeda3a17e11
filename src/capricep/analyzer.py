"""Response recovery and decomposition.

Pipeline: pulse compression (correlation with each time-reversed unit),
orthogonalization (8-cycle weighted shift-and-average), synchronous
averaging across complete cycles, then the five-channel split:

  LTI-L   raw linear time-invariant impulse response
  LTI-S   third-octave smoothed spectrum of LTI-L
  nonl-TI per-polarity-combination deviations from the LTI estimate
  RNTV    level of the fourth (never-played) channel
  pre-BG  background noise measured on the pre-signal silence

Orthogonalization uses the forward-shift (correlation) convention
r[n] = (1/8) sum_k q[n + k*n_o] * b[k]: the reinforced pulses of every
channel then share the phase-0 alignment, so the four channels can be
averaged and compared sample-by-sample.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .allpass import next_pow2
from .bands import band_bins, mean_band_powers, third_octave_centers, to_db
from .design import UnitCapricep
from .errors import AnalysisError
from .sequences import B4, SequenceSet

# Pre-roll (fraction of n_o) between window start and the pulse peak so
# two-sided compression tails are not split across window edges.
_PREROLL_FRACTION = 8

# Orthogonalization averages 8 comb-spaced samples, cutting uncorrelated
# power by 8; noise-like channels are scaled back so all five channels
# share the recording's dB reference.
_NOISE_GAIN_COMP = np.sqrt(8.0)


@dataclass(frozen=True)
class CompressedSignals:
    q: list[np.ndarray]
    alignment: int | None = None


@dataclass(frozen=True)
class DecompositionResult:
    lti_raw: np.ndarray
    lti_smoothed_spectrum: np.ndarray
    nonlinear_ti: np.ndarray
    random_tv: np.ndarray
    background: np.ndarray
    levels_db: dict
    fs: float
    n_ini: int
    omega_size: int
    background_valid: bool


def compress(
    recorded: np.ndarray,
    units: list[UnitCapricep],
    n_o: int | None = None,
) -> CompressedSignals:
    """Correlate the recording with each unit (time-reversed convolution)."""
    recorded = np.asarray(recorded, dtype=float)
    length = len(units[0].samples)
    min_len = 8 * n_o if n_o else length
    if len(recorded) < min_len:
        raise AnalysisError(
            f"recording too short: {len(recorded)} samples, need >= {min_len}"
        )
    q = [fftconvolve(recorded, u.samples[::-1], mode="full") for u in units]
    alignment = find_alignment(q[0], n_o) if n_o else None
    return CompressedSignals(q=q, alignment=alignment)


def find_alignment(q1: np.ndarray, n_o: int) -> int:
    """Locate the first recovered pulse: comb-periodic energy peak, then
    the first cycle whose pulse energy reaches steady level."""
    n_combs = len(q1) // n_o
    if n_combs < 2:
        raise AnalysisError("recording shorter than two pulse periods")
    e = q1[: n_combs * n_o] ** 2
    if not np.any(e > 0.0):
        return 0
    profile = e.reshape(n_combs, n_o).sum(axis=0)
    peak_offset = int(np.argmax(profile))
    w = max(1, n_o // _PREROLL_FRACTION)
    pulse_energy = np.empty(n_combs)
    for j in range(n_combs):
        pos = peak_offset + j * n_o
        pulse_energy[j] = e[max(0, pos - w):pos + w].sum()
    steady = np.median(pulse_energy[pulse_energy > 0.1 * pulse_energy.max()])
    first = int(np.argmax(pulse_energy >= 0.5 * steady))
    n_ini = peak_offset + first * n_o - n_o // _PREROLL_FRACTION
    return max(0, n_ini)


def orthogonalize(
    q: CompressedSignals,
    weights: np.ndarray,
    n_o: int,
) -> list[np.ndarray]:
    """Weighted 8-cycle shift-and-average of each compressed channel.

    The tail 7*n_o samples of each output lack complete data and are
    zeroed.
    """
    rows = np.asarray(weights)
    if rows.shape != (4, 8):
        raise AnalysisError("weight matrix must be 4x8")
    out = []
    for m, qm in enumerate(q.q):
        n = len(qm)
        if n < 8 * n_o:
            raise AnalysisError("compressed signal shorter than one 8-cycle")
        r = np.zeros(n)
        valid = n - 7 * n_o
        for k in range(8):
            r[:valid] += rows[m, k] * qm[k * n_o:k * n_o + valid]
        r /= 8.0
        r[valid:] = 0.0
        out.append(r)
    return out


def synchronous_average(
    r_itr: np.ndarray,
    n_ini: int,
    n_o: int,
    omega: list[int],
) -> np.ndarray:
    """Mean of the length-n_o windows at n_ini + 8*k*n_o, k in omega."""
    windows = _cycle_windows(r_itr, n_ini, n_o, omega, phase=0)
    return windows.mean(axis=0)


def _cycle_windows(
    r_itr: np.ndarray,
    n_ini: int,
    n_o: int,
    omega: list[int],
    phase: int,
) -> np.ndarray:
    if len(omega) == 0:
        raise AnalysisError("recording too short for one clean cycle")
    rows = []
    for k in omega:
        start = n_ini + (phase + 8 * k) * n_o
        if start < 0 or start + n_o > len(r_itr):
            raise AnalysisError(
                f"cycle window [{start}, {start + n_o}) outside recording"
            )
        rows.append(r_itr[start:start + n_o])
    return np.stack(rows)


def usable_omega(
    sset: SequenceSet,
    n_ini: int,
    q_length: int,
) -> list[int]:
    """Complete 8-cycles excluding warm-up and cool-down, clipped to the
    cycles whose phase-7 window plus orthogonalization span fits."""
    n_cycles = sset.n_repeats // 8
    omega = []
    for k in range(1, n_cycles - 1):
        end = n_ini + (7 + 8 * k) * sset.n_o + sset.n_o
        if end <= q_length - 7 * sset.n_o:
            omega.append(k)
    return omega


def decompose(
    recorded: np.ndarray,
    pre_silence: np.ndarray | None,
    sset: SequenceSet,
    scale: float = 1.0,
) -> DecompositionResult:
    """Split a recording of the three-sequence test signal into the five
    channels.  ``scale`` is the playback gain recorded in the sidecar;
    all levels are referenced to the unit-gain test signal."""
    recorded = np.asarray(recorded, dtype=float)
    if not np.isfinite(recorded).all():
        raise AnalysisError("recording contains NaN or inf samples")
    recorded = recorded / scale
    n_o = sset.n_o
    fs = sset.fs
    comp = compress(recorded, sset.units, n_o=n_o)
    n_ini = comp.alignment
    r_itr = orthogonalize(comp, B4, n_o)
    omega = usable_omega(sset, n_ini, len(comp.q[0]))

    r_m = [synchronous_average(r_itr[m], n_ini, n_o, omega) for m in range(3)]
    lti_raw = (r_m[0] + r_m[1] + r_m[2]) / 3.0

    # The eight polarity-combination segments weight nonlinear products
    # differently onto the three channels, while a time-invariant linear
    # system drives all three to the same response.  The measurable
    # projection of the combination deviations is therefore the spread
    # of the per-channel responses around their average.
    dev_stack = np.stack([rm - lti_raw for rm in r_m])
    nonlinear_ti = np.sqrt((dev_stack ** 2).mean(axis=0))

    # Fourth channel: never part of the test signal, so it carries noise
    # and time variation only.  Power is kept per cycle (no waveform
    # averaging) and compensated for the orthogonalization gain.
    w4 = _cycle_windows(r_itr[3], n_ini, n_o, omega, phase=0)
    random_tv = np.sqrt((w4 ** 2).mean(axis=0)) * _NOISE_GAIN_COMP

    background, background_valid = _background_windows(pre_silence, sset, scale)

    levels = _level_table(
        fs, n_o, lti_raw, dev_stack, w4, background, background_valid)

    bg_array = (np.sqrt((background ** 2).mean(axis=0))
                if background_valid else np.zeros(n_o))
    return DecompositionResult(
        lti_raw=lti_raw,
        lti_smoothed_spectrum=levels["lti_s_db"],
        nonlinear_ti=nonlinear_ti,
        random_tv=random_tv,
        background=bg_array,
        levels_db=levels,
        fs=fs,
        n_ini=n_ini,
        omega_size=len(omega),
        background_valid=background_valid,
    )


def _background_windows(
    pre_silence: np.ndarray | None,
    sset: SequenceSet,
    scale: float,
) -> tuple[np.ndarray, bool]:
    """Silence segment through the channel-4 compression path, cut into
    length-n_o frames.  Uses compression only (the segment is shorter
    than an 8-cycle), so frames carry the same unit gain for noise as
    the compensated channel-4 windows."""
    n_o = sset.n_o
    if pre_silence is None or len(pre_silence) < 2 * n_o:
        return np.zeros((1, n_o)), False
    silence = np.asarray(pre_silence, dtype=float)
    if not np.isfinite(silence).all():
        raise AnalysisError("pre-signal silence contains NaN or inf samples")
    if np.max(np.abs(silence)) >= 0.999 * max(1.0, scale):
        return np.zeros((1, n_o)), False
    silence = silence / scale
    u4 = sset.units[3].samples
    qbg = fftconvolve(silence, u4[::-1], mode="valid")
    n_frames = len(qbg) // n_o
    if n_frames < 1:
        return np.zeros((1, n_o)), False
    frames = qbg[: n_frames * n_o].reshape(n_frames, n_o)
    return frames, True


def _level_table(
    fs: float,
    n_o: int,
    lti_raw: np.ndarray,
    dev_stack: np.ndarray,
    w4: np.ndarray,
    background: np.ndarray,
    background_valid: bool,
) -> dict:
    centers = third_octave_centers(fs)
    n_fft = next_pow2(max(256, 2 * n_o))

    lti_band = mean_band_powers([lti_raw], fs, centers, n_fft)
    reference = float(lti_band.max())
    if reference <= 0.0:
        raise AnalysisError("LTI response has no energy")

    nonl_band = mean_band_powers(list(dev_stack), fs, centers, n_fft)
    rntv_raw_band = mean_band_powers(list(w4), fs, centers, n_fft) * 8.0
    bg_band = (mean_band_powers(list(background), fs, centers, n_fft)
               if background_valid else np.zeros(len(centers)))
    rntv_corr_band = np.maximum(rntv_raw_band - bg_band, 0.0)

    # Smoothed spectrum: per-band mean power (PSD smoothing), re-pinned
    # to the raw curve's peak so both LTI lines share the 0 dB point.
    start, stop = band_bins(fs, centers, n_fft)
    n_bins = stop - start
    smoothed = np.divide(lti_band, n_bins, out=np.zeros(len(centers)), where=n_bins > 0)
    smoothed_ref = float(smoothed.max()) if smoothed.max() > 0 else 1.0

    return {
        "freq_hz": centers,
        "lti_l_db": to_db(lti_band, reference),
        "lti_s_db": to_db(smoothed, smoothed_ref),
        "nonl_ti_db": to_db(nonl_band, reference),
        "rntv_db": to_db(rntv_corr_band, reference),
        "pre_bg_db": to_db(bg_band, reference),
        "rntv_raw_db": to_db(rntv_raw_band, reference),
    }

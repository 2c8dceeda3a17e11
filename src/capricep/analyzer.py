"""Response recovery and decomposition.

Pipeline: pulse compression (correlation with each time-reversed unit),
orthogonalization (8-cycle weighted shift-and-average), synchronous
averaging across complete cycles, then the five-channel split:

  LTI-L   raw linear time-invariant impulse response
  LTI-S   third-octave smoothed spectrum of LTI-L
  nonl-TI per-polarity-combination deviations from the LTI estimate
  RNTV    level of the fourth (never-played) channel
  pre-BG  background noise measured on the pre-signal silence

Compression is overlap-save convolution (``fftconv.OverlapSave``): the
recording is cut into frames and transformed once, and each reversed
unit then costs one short rfft and one batched irfft over the frames.

Orthogonalization uses the forward-shift (correlation) convention
r[n] = (1/8) sum_k q[n + k*n_o] * b[k]: the reinforced pulses of every
channel then share the phase-0 alignment, so the four channels can be
averaged and compared sample-by-sample.  ``orthogonalize`` returns these
full-length channels; ``decompose`` reads only one window per usable
cycle, so it orthogonalizes just those windows, straight from the
compressed channels, in the same order of float operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .allpass import next_pow2
from .bands import band_bins, mean_band_powers, third_octave_centers, to_db
from .design import UnitCapricep
from .errors import AnalysisError
from .fftconv import OverlapSave
from .sequences import B4, check_session

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
    alignment: int


@dataclass(frozen=True)
class DecompositionResult:
    lti_raw: np.ndarray
    nonlinear_ti: np.ndarray
    random_tv: np.ndarray
    levels_db: dict
    n_ini: int
    omega_size: int
    background_valid: bool


def compress(
    recorded: np.ndarray,
    units: list[UnitCapricep],
    n_o: int,
) -> CompressedSignals:
    """Correlate the recording with each unit (time-reversed convolution).

    Each q[m] is the full linear convolution of the recording with the
    reversed unit m.  The recording is framed and transformed once, for
    the longest unit, and every unit reuses its spectrum.
    """
    recorded = np.asarray(recorded, dtype=float)
    if len(recorded) < 8 * n_o:
        raise AnalysisError(
            f"recording too short: {len(recorded)} samples, need >= {8 * n_o}"
        )
    framed = OverlapSave(recorded, max(len(u.samples) for u in units))
    q = [framed.convolve(u.samples[::-1]) for u in units]
    del framed  # freed before find_alignment allocates its work arrays
    return CompressedSignals(q=q, alignment=find_alignment(q[0], n_o))


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
        valid = n - 7 * n_o
        r = np.zeros(n)
        r[:valid] = _comb_sum([qm[k * n_o:k * n_o + valid] for k in range(8)], rows[m])
        out.append(r)
    return out


def _comb_sum(shifted, row: np.ndarray) -> np.ndarray:
    """(1/8) sum_k row[k] * shifted[k], added in k order onto zeros, for
    the eight comb-shifted views ``shifted`` of one compressed channel."""
    out = np.zeros(shifted[0].shape)
    for b, x in zip(row, shifted):
        out += b * x
    out /= 8.0
    return out


def synchronous_average(
    r_itr: np.ndarray,
    n_ini: int,
    n_o: int,
    omega: list[int],
) -> np.ndarray:
    """Mean of the length-n_o windows at n_ini + 8*k*n_o, k in omega."""
    if len(omega) == 0:
        raise AnalysisError("no cycle to average")
    rows = []
    for k in omega:
        start = n_ini + 8 * k * n_o
        if start < 0 or start + n_o > len(r_itr):
            raise AnalysisError(
                f"cycle window [{start}, {start + n_o}) outside recording"
            )
        rows.append(r_itr[start:start + n_o])
    return np.stack(rows).mean(axis=0)


def usable_omega(
    n_o: int,
    n_repeats: int,
    n_ini: int,
    q_length: int,
) -> list[int]:
    """Complete 8-cycles excluding warm-up and cool-down, clipped to the
    cycles whose phase-7 window plus orthogonalization span fits:
    n_ini + (8 + 8*k)*n_o <= q_length - 7*n_o."""
    n_fit = (q_length - 7 * n_o - n_ini) // (8 * n_o)  # cycles 0 .. n_fit-1 fit
    return list(range(1, min(n_repeats // 8 - 1, n_fit)))


def decompose(
    recorded: np.ndarray,
    pre_silence: np.ndarray | None,
    units: list[UnitCapricep],
    n_o: int,
    n_repeats: int,
    scale: float = 1.0,
) -> DecompositionResult:
    """Split a recording of the three-sequence test signal into the five
    channels of the session ``units`` played every ``n_o`` samples,
    ``n_repeats`` times.  ``scale`` is the playback gain recorded in the
    sidecar; all levels are referenced to the unit-gain test signal."""
    check_session(units, n_o, n_repeats)
    recorded = np.asarray(recorded, dtype=float)
    if not np.isfinite(recorded).all():
        raise AnalysisError("recording contains NaN or inf samples")
    recorded = recorded / scale
    comp = compress(recorded, units, n_o)
    n_ini = comp.alignment
    omega = usable_omega(n_o, n_repeats, n_ini, len(comp.q[0]))
    if not omega:
        raise AnalysisError("recording too short for one clean cycle")

    # w[m, c] is channel m orthogonalized over usable cycle c's window:
    # the B4-weighted sum of that cycle's eight slots, read as views of
    # q_m (usable_omega keeps the span inside q_m).
    span = slice(n_ini + 8 * n_o * omega[0], n_ini + 8 * n_o * (omega[-1] + 1))
    w = np.stack([_comb_sum(qm[span].reshape(len(omega), 8, n_o).swapaxes(0, 1), row)
                  for qm, row in zip(comp.q, B4)])
    r_m = [w[m].mean(axis=0) for m in range(3)]
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
    w4 = w[3]
    random_tv = np.sqrt((w4 ** 2).mean(axis=0)) * _NOISE_GAIN_COMP

    background = _background_frames(pre_silence, units[3].samples, n_o, scale)
    return DecompositionResult(
        lti_raw=lti_raw,
        nonlinear_ti=nonlinear_ti,
        random_tv=random_tv,
        levels_db=_level_table(units[0].fs, n_o, lti_raw, dev_stack, w4, background),
        n_ini=n_ini,
        omega_size=len(omega),
        background_valid=background is not None,
    )


def _background_frames(
    pre_silence: np.ndarray | None,
    u4: np.ndarray,
    n_o: int,
    scale: float,
) -> np.ndarray | None:
    """Silence segment through the channel-4 compression path, cut into
    length-n_o frames, or None when there is no usable silence.  Uses
    compression only (the segment is shorter than an 8-cycle), so frames
    carry the same unit gain for noise as the compensated channel-4
    windows."""
    if pre_silence is None or len(pre_silence) < 2 * n_o:
        return None
    silence = np.asarray(pre_silence, dtype=float)
    if not np.isfinite(silence).all():
        raise AnalysisError("pre-signal silence contains NaN or inf samples")
    if np.max(np.abs(silence)) >= 0.999 * max(1.0, scale):
        return None
    silence = silence / scale
    qbg = _valid_convolution(silence, u4[::-1])
    n_frames = len(qbg) // n_o
    if n_frames < 1:
        return None
    return qbg[: n_frames * n_o].reshape(n_frames, n_o)


def _valid_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 'valid' part of a * b, computed as scipy.signal.fftconvolve
    computes it for inputs of two or more samples, so the bytes match:
    the longer input first, one rfft pair on next_fast_len of the full
    length, then the centred slice."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a) + len(b) - 1
    nf = scipy.fft.next_fast_len(n, True)
    full = scipy.fft.irfft(scipy.fft.rfft(a, nf) * scipy.fft.rfft(b, nf), nf)
    return full[len(b) - 1:len(a)]


def _level_table(
    fs: float,
    n_o: int,
    lti_raw: np.ndarray,
    dev_stack: np.ndarray,
    w4: np.ndarray,
    background: np.ndarray | None,
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
               if background is not None else np.zeros(len(centers)))
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

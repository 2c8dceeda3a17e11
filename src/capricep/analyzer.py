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
averaged and compared sample-by-sample.  ``compress``, ``orthogonalize``
and ``synchronous_average`` run these steps on full-length signals.

``decompose`` runs them in another order.  The comb sum and the cycle
average are linear and shift-invariant, so they commute with correlation
by a unit.  Only unit 0 is correlated with the whole recording
(overlap-save, ``fftconv.OverlapSave``), because the alignment search
reads its comb profile.  Every usable cycle is then eight slots of
n_o + L - 1 recording samples, L the unit length.  Channels 0-2 average
the slots over the cycles, weight them by their B4 row, and correlate
the one folded window with their unit.  Channel 3 keeps its power per
cycle, so each cycle's folded window is correlated, all in one batched
FFT.  The channels agree with the full-length steps to rounding.  The
pre-signal silence goes through overlap-save with the reversed fourth
unit, keeping only the samples where the unit overlaps it whole.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bands
from .design import UnitCapricep
from .errors import AnalysisError
from .fftconv import OverlapSave, next_fast_len, next_pow2
from .sequences import B4, check_session

# Pre-roll (fraction of n_o) between window start and the pulse peak so
# two-sided compression tails are not split across window edges.
_PREROLL_FRACTION = 8

# Orthogonalization averages 8 comb-spaced samples, cutting uncorrelated
# power by 8; noise-like channels are scaled back so all five channels
# share the recording's dB reference.
_NOISE_GAIN_COMP = np.sqrt(8.0)


@dataclass(frozen=True, eq=False)
class CompressedSignals:
    q: list[np.ndarray]
    alignment: int


@dataclass(frozen=True, eq=False)
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
        for k, b in enumerate(rows[m]):
            r[:valid] += b * qm[k * n_o:k * n_o + valid]
        r /= 8.0
        out.append(r)
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
    comp = compress(recorded, units[:1], n_o)
    n_ini = comp.alignment
    omega = usable_omega(n_o, n_repeats, n_ini, len(comp.q[0]))
    if not omega:
        raise AnalysisError("recording too short for one clean cycle")
    del comp

    # Fold the slots first, then correlate (see the module docstring).
    # The first n_o lags of a circular correlation over n_fft >= n_o + L - 1
    # points wrap no sample of a folded window.
    n_unit = len(units[0].samples)
    slots = _cycle_slots(recorded, n_unit, n_ini, n_o, omega)
    n_fft = next_fast_len(n_o + n_unit - 1)
    spectra = np.fft.rfft([u.samples for u in units], n_fft).conj()

    def correlate(fold, spectrum):
        return np.fft.irfft(np.fft.rfft(fold, n_fft) * spectrum, n_fft)[..., :n_o]

    r_m = correlate(B4[:3] @ slots.mean(axis=0) / 8.0, spectra[:3])
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
    w4 = correlate(np.einsum("s,csw->cw", B4[3] / 8.0, slots), spectra[3])
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


def _cycle_slots(
    recorded: np.ndarray,
    n_unit: int,
    n_ini: int,
    n_o: int,
    omega: list[int],
) -> np.ndarray:
    """The eight slots of every usable cycle, as one (len(omega), 8,
    n_o + n_unit - 1) view.  Slot s of cycle k holds the samples that
    correlate into the cycle window q[n_ini + (8k + s) n_o:][:n_o] of a
    full compression: the recording padded with n_unit - 1 leading zeros
    and zeros past its end.  usable_omega keeps the cycles consecutive."""
    width = n_o + n_unit - 1
    start = n_ini + 8 * n_o * omega[0] - (n_unit - 1)
    span = np.zeros(8 * n_o * len(omega) + n_unit - 1)
    lo, hi = max(start, 0), min(start + len(span), len(recorded))
    span[lo - start:hi - start] = recorded[lo:hi]
    return sliding_window_view(span, width)[::n_o].reshape(len(omega), 8, width)


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
    qbg = OverlapSave(silence, len(u4)).convolve(u4[::-1])[len(u4) - 1:len(silence)]
    n_frames = len(qbg) // n_o
    if n_frames < 1:
        return None
    return qbg[: n_frames * n_o].reshape(n_frames, n_o)


def _level_table(
    fs: float,
    n_o: int,
    lti_raw: np.ndarray,
    dev_stack: np.ndarray,
    w4: np.ndarray,
    background: np.ndarray | None,
) -> dict:
    centers = bands.third_octave_centers(fs)
    n_fft = next_pow2(max(256, 2 * n_o))

    lti_band = bands.band_powers(lti_raw, fs, centers, n_fft)
    reference = float(lti_band.max())
    if reference <= 0.0:
        raise AnalysisError("LTI response has no energy")

    # Frame stacks are averaged in power.
    nonl_band = bands.band_powers(dev_stack, fs, centers, n_fft).mean(axis=0)
    rntv_raw_band = bands.band_powers(w4, fs, centers, n_fft).mean(axis=0) * 8.0
    bg_band = (bands.band_powers(background, fs, centers, n_fft).mean(axis=0)
               if background is not None else np.zeros(len(centers)))
    rntv_corr_band = np.maximum(rntv_raw_band - bg_band, 0.0)

    # Smoothed spectrum: per-band mean power (PSD smoothing), re-pinned
    # to the raw curve's peak so both LTI lines share the 0 dB point.
    start, stop = bands.band_bins(fs, centers, n_fft)
    n_bins = stop - start
    smoothed = np.divide(lti_band, n_bins, out=np.zeros(len(centers)), where=n_bins > 0)
    smoothed_ref = float(smoothed.max()) if smoothed.max() > 0 else 1.0

    return {
        "freq_hz": centers,
        "lti_l_db": bands.to_db(lti_band, reference),
        "lti_s_db": bands.to_db(smoothed, smoothed_ref),
        "nonl_ti_db": bands.to_db(nonl_band, reference),
        "rntv_db": bands.to_db(rntv_corr_band, reference),
        "pre_bg_db": bands.to_db(bg_band, reference),
        "rntv_raw_db": bands.to_db(rntv_raw_band, reference),
    }

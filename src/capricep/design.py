"""Unit pulse design: randomized center-frequency assignment.

Center frequencies are the cumulative sum of random intervals drawn
from Beta(alpha, beta) and scaled so the mean interval is exactly fd,
stopping below Nyquist.  Each section gets an equiprobable +1/-1 time
direction and the common bandwidth ``cmag * fd``; ``draw_sections``
returns them as one record array of dtype ``allpass.SECTION_DTYPE``.
One section is a conjugate pole pair, i.e. two cascaded first-order
all-pass filters; ``first_order_count`` reports the latter.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .allpass import SECTION_DTYPE, cascade_phase, impulse_response
from .errors import DesignError, TooFewSectionsError, whole_number
from .fftconv import next_pow2

DEFAULT_CMAG = 2.0 ** 0.25
DEFAULT_ALPHA = 8.0
DEFAULT_TRUNCATION = 4.0

# Ratio of the best-fitting rectangle duration to 1/fd for the default
# (cmag, alpha) setting; established by the grid search in shaping.py.
TERD_NOMINAL_RATIO = 1.736


@dataclass(frozen=True)
class DesignParams:
    """Everything needed to regenerate one unit pulse bit-exactly."""

    fs: float
    fd: float
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_ALPHA
    cmag: float = DEFAULT_CMAG
    seed: int = 0
    truncation_factor: float = DEFAULT_TRUNCATION

    def validate(self) -> None:
        values = (self.fs, self.fd, self.alpha, self.beta, self.cmag, self.truncation_factor)
        if not all(math.isfinite(v) for v in values):
            raise DesignError("fs, fd, alpha, beta, cmag and truncation_factor must be finite")
        if not 0.0 < self.fd < self.fs / 2.0:
            raise DesignError(f"fd={self.fd} outside (0, fs/2)")
        if self.alpha <= 0 or self.beta <= 0 or self.cmag <= 0:
            raise DesignError("alpha, beta and cmag must be positive")
        if self.truncation_factor <= 0:
            raise DesignError("truncation_factor must be positive")
        _check_seed(self.seed)

    def nominal_t_erd(self) -> float:
        """Rectangle duration matching this design's variance profile."""
        return TERD_NOMINAL_RATIO / self.fd

    def to_dict(self) -> dict:
        return {
            "fs": self.fs,
            "fd": self.fd,
            "alpha": self.alpha,
            "beta": self.beta,
            "cmag": self.cmag,
            "seed": int(self.seed),
            "truncation_factor": self.truncation_factor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DesignParams":
        return cls(
            fs=float(d["fs"]),
            fd=float(d["fd"]),
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            cmag=float(d["cmag"]),
            seed=whole_number(d["seed"], "seed"),
            truncation_factor=float(d["truncation_factor"]),
        )


# Short raised-cosine companion design for composite units.  The
# (fd, alpha) pair comes from the coarse search in shaping.py against a
# 0.5 ms raised-cosine variance target at fs = 44100.
RAISED_COSINE_SHORT_FD = 4500.0
RAISED_COSINE_SHORT_ALPHA = 4.0
RAISED_COSINE_SHORT_T_ERD_S = 0.0005


def raised_cosine_short_params(fs: float, seed: int) -> DesignParams:
    """Preset for the 0.5 ms raised-cosine companion unit."""
    return DesignParams(
        fs=fs,
        fd=RAISED_COSINE_SHORT_FD,
        alpha=RAISED_COSINE_SHORT_ALPHA,
        beta=RAISED_COSINE_SHORT_ALPHA,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class UnitCapricep:
    """Sampled unit pulse with alignment metadata."""

    samples: np.ndarray
    fs: float
    t_erd_s: float
    design: DesignParams
    sections: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, SECTION_DTYPE))

    @property
    def center_index(self) -> int:
        return len(self.samples) // 2

    @property
    def energy(self) -> float:
        return float(np.sum(self.samples * self.samples))


def first_order_count(sections) -> int:
    """Cascaded first-order filter count: each pole pair realizes two."""
    return 2 * len(sections)


def _check_seed(seed: int) -> None:
    """Reject a seed numpy cannot take: anything but an integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DesignError(f"seed={seed!r} must be a non-negative integer")


def derive_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-unit RNG stream from (base seed, unit index)."""
    _check_seed(base_seed)
    return np.random.SeedSequence([int(base_seed), int(index)])


# Most rounds of interval draws in draw_sections.  A round holds 1.5
# times the nyquist / fd intervals that reach Nyquist on average, so the
# cap is at least 96 times that mean.  Beta draws that underflow to 0 (a
# tiny alpha) would otherwise never reach Nyquist.  At fs 44100, fd 2000
# and beta 8 the slowest of 400 seeds needed 18 rounds at alpha 1e-3 and
# 123 at alpha 1e-4.
_MAX_DRAW_ROUNDS = 64


def draw_sections(params: DesignParams) -> np.ndarray:
    """Draw the randomized section array for one unit (deterministic per seed)."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    nyquist = params.fs / 2.0
    # Beta draws on [0, 1] scaled by fd / E[Beta(alpha, beta)] so the
    # mean interval is fd for any (alpha, beta).
    scale = params.fd * (params.alpha + params.beta) / params.alpha
    n_guess = int(np.ceil(nyquist / params.fd * 1.5)) + 64
    chunks = [np.cumsum(rng.beta(params.alpha, params.beta, size=n_guess) * scale)]
    while chunks[-1][-1] < nyquist:
        if len(chunks) == _MAX_DRAW_ROUNDS:
            raise DesignError(
                f"{n_guess * len(chunks)} intervals drawn from Beta({params.alpha}, "
                f"{params.beta}) stay below Nyquist: alpha or beta too small")
        more = rng.beta(params.alpha, params.beta, size=n_guess) * scale
        chunks.append(chunks[-1][-1] + np.cumsum(more))
    freqs = np.concatenate(chunks)
    freqs = freqs[freqs < nyquist]
    if len(freqs) < 2:
        raise TooFewSectionsError(
            f"fd={params.fd} too large: only {len(freqs)} sections fit below Nyquist"
        )
    sections = np.empty(len(freqs), SECTION_DTYPE)
    sections["center_freq_hz"] = freqs
    sections["bandwidth_hz"] = params.cmag * params.fd
    sections["time_sign"] = np.where(rng.random(len(freqs)) < 0.5, 1, -1)
    return sections


def validate_t_erd(t_erd_s: float) -> None:
    """Reject a target rectangle duration that is not finite and > 0."""
    if not (math.isfinite(t_erd_s) and t_erd_s > 0.0):
        raise DesignError(f"t_erd_s={t_erd_s} must be finite and > 0")


# Largest synthesis grid, so n_keep is at most 2**19 samples (11.9 s at
# 44.1 kHz).  At this cap, reached at fd 0.6 Hz at 44.1 kHz by the
# default design, the cascade-phase kernel traced a 31 MB peak and took
# 6 s for 36,776 sections on one core.
MAX_SYNTHESIS_FFT = 2 ** 20


def generate_unit(params: DesignParams, t_erd_s: float | None = None) -> UnitCapricep:
    """Generate one unit pulse, truncated to truncation_factor * t_erd."""
    return composite_unit(None, params, t_erd_s)


def composite_unit(
    short_params: DesignParams | None,
    long_params: DesignParams,
    t_erd_s: float | None = None,
) -> UnitCapricep:
    """One unit from the concatenated short + long section lists, at the
    rate and truncation of ``long_params``.

    The short companion spreads the coherent center spike of the long
    design; an absent short design reduces to the plain long unit.  The
    grid size is checked before any section is drawn or any array
    allocated.
    """
    long_params.validate()
    if t_erd_s is None:
        t_erd_s = long_params.nominal_t_erd()
    designs = [long_params]
    if short_params is not None:
        short_params.validate()
        if short_params.fs != long_params.fs:
            raise DesignError("short and long designs must share fs")
        designs.insert(0, short_params)
    validate_t_erd(t_erd_s)
    fs = long_params.fs
    n_keep = long_params.truncation_factor * t_erd_s * fs
    if not n_keep <= MAX_SYNTHESIS_FFT:  # also trips on inf
        raise DesignError(
            f"unit of {n_keep:g} samples needs a synthesis grid above the "
            f"{MAX_SYNTHESIS_FFT}-point limit")
    n_keep = int(round(n_keep))
    if n_keep < 2:
        raise DesignError("truncation window shorter than 2 samples")
    # Synthesis grid twice the kept window so circular wrap of the
    # exponential tails stays negligible.
    n_fft = next_pow2(2 * n_keep)
    if n_fft > MAX_SYNTHESIS_FFT:
        raise DesignError(
            f"unit of {n_keep} samples needs a {n_fft}-point synthesis grid, "
            f"above the {MAX_SYNTHESIS_FFT}-point limit")
    sections = np.concatenate([draw_sections(p) for p in designs])
    h, center = impulse_response(cascade_phase(sections, fs, n_fft))
    start = center - n_keep // 2
    kept = h[start:start + n_keep]
    loss = 1.0 - float(np.sum(kept * kept))
    if loss > 0.01:
        raise DesignError(f"truncation loss {loss:.2%} exceeds 1% of unit energy")
    return UnitCapricep(samples=kept.copy(), fs=fs, t_erd_s=t_erd_s, design=long_params,
                        sections=sections)


def derive_unit_designs(base: DesignParams, count: int = 4) -> list[DesignParams]:
    """Per-unit designs with seeds derived from (base seed, unit index).

    Every ensemble uses this rule, so make-signal and analyze regenerate
    the same units from one seed; the default count is a session's four.
    """
    return [
        replace(base, seed=int(derive_seed(base.seed, i).generate_state(1)[0]))
        for i in range(count)
    ]


def generate_ensemble(
    params: DesignParams,
    t_erd_s: float,
    n_units: int,
) -> list[UnitCapricep]:
    """n_units independent units with per-index derived seeds."""
    return [generate_unit(p, t_erd_s) for p in derive_unit_designs(params, n_units)]


def design_to_json(unit: UnitCapricep, include_sections: bool = False) -> str:
    """Sidecar JSON for one unit design."""
    doc = {
        "design": unit.design.to_dict(),
        "t_erd_s": unit.t_erd_s,
        "first_order_count": first_order_count(unit.sections),
    }
    if include_sections:
        doc["sections"] = [dict(zip(SECTION_DTYPE.names, row))
                           for row in unit.sections.tolist()]
    return json.dumps(doc, indent=2, sort_keys=True)

"""Unit pulse design: randomized center-frequency assignment.

Center frequencies are the cumulative sum of random intervals drawn
from Beta(alpha, beta) and scaled so the mean interval is exactly fd,
stopping below Nyquist.  Each section gets an equiprobable +1/-1 time
direction and the common bandwidth ``cmag * fd``.  One section is a
conjugate pole pair, i.e. two cascaded first-order all-pass filters;
``first_order_count`` reports the latter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .allpass import AllPassSection, cascade_phase, impulse_response, next_pow2
from .errors import DesignError

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
            seed=int(d["seed"]),
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


@dataclass(frozen=True)
class UnitCapricep:
    """Sampled unit pulse with alignment metadata."""

    samples: np.ndarray
    fs: float
    center_index: int
    t_erd_s: float
    design: DesignParams
    sections: list[AllPassSection] = field(repr=False, default_factory=list)

    @property
    def energy(self) -> float:
        return float(np.sum(self.samples * self.samples))


def first_order_count(sections: list[AllPassSection]) -> int:
    """Cascaded first-order filter count: each pole pair realizes two."""
    return 2 * len(sections)


def derive_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-unit RNG stream from (base seed, unit index)."""
    return np.random.SeedSequence([int(base_seed), int(index)])


def draw_sections(params: DesignParams) -> list[AllPassSection]:
    """Draw the randomized section list for one unit (deterministic per seed)."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    nyquist = params.fs / 2.0
    # Beta draws on [0, 1] scaled by fd / E[Beta(alpha, beta)] so the
    # mean interval is fd for any (alpha, beta).
    scale = params.fd * (params.alpha + params.beta) / params.alpha
    n_guess = int(np.ceil(nyquist / params.fd * 1.5)) + 64
    intervals = rng.beta(params.alpha, params.beta, size=n_guess) * scale
    freqs = np.cumsum(intervals)
    while freqs[-1] < nyquist:
        more = rng.beta(params.alpha, params.beta, size=n_guess) * scale
        freqs = np.concatenate([freqs, freqs[-1] + np.cumsum(more)])
    freqs = freqs[freqs < nyquist]
    if len(freqs) < 2:
        raise DesignError(
            f"fd={params.fd} too large: only {len(freqs)} sections fit below Nyquist"
        )
    signs = np.where(rng.random(len(freqs)) < 0.5, 1, -1)
    bw = params.cmag * params.fd
    return [
        AllPassSection(center_freq_hz=float(f), bandwidth_hz=bw, time_sign=int(s))
        for f, s in zip(freqs, signs)
    ]


def validate_t_erd(t_erd_s: float) -> None:
    """Reject a target rectangle duration that is not finite and > 0."""
    if not (math.isfinite(t_erd_s) and t_erd_s > 0.0):
        raise DesignError(f"t_erd_s={t_erd_s} must be finite and > 0")


def _render_unit(
    sections: list[AllPassSection],
    params: DesignParams,
    t_erd_s: float,
) -> UnitCapricep:
    validate_t_erd(t_erd_s)
    fs = params.fs
    n_keep = int(round(params.truncation_factor * t_erd_s * fs))
    if n_keep < 2:
        raise DesignError("truncation window shorter than 2 samples")
    # Synthesis grid twice the kept window so circular wrap of the
    # exponential tails stays negligible.
    n_fft = next_pow2(2 * n_keep)
    resp = cascade_phase(sections, fs, n_fft)
    h, center = impulse_response(resp)
    start = center - n_keep // 2
    kept = h[start:start + n_keep]
    loss = 1.0 - float(np.sum(kept * kept))
    if loss > 0.01:
        raise DesignError(f"truncation loss {loss:.2%} exceeds 1% of unit energy")
    return UnitCapricep(
        samples=kept.copy(),
        fs=fs,
        center_index=n_keep // 2,
        t_erd_s=t_erd_s,
        design=params,
        sections=sections,
    )


def generate_unit(params: DesignParams, t_erd_s: float | None = None) -> UnitCapricep:
    """Generate one unit pulse, truncated to truncation_factor * t_erd."""
    params.validate()
    if t_erd_s is None:
        t_erd_s = params.nominal_t_erd()
    return _render_unit(draw_sections(params), params, t_erd_s)


def composite_unit(
    short_params: DesignParams | None,
    long_params: DesignParams,
    t_erd_s: float | None = None,
) -> UnitCapricep:
    """One unit from the concatenated short + long section lists.

    The short companion spreads the coherent center spike of the long
    design; an absent short design reduces to the plain long unit.
    """
    long_params.validate()
    if t_erd_s is None:
        t_erd_s = long_params.nominal_t_erd()
    sections = []
    if short_params is not None:
        short_params.validate()
        if short_params.fs != long_params.fs:
            raise DesignError("short and long designs must share fs")
        sections.extend(draw_sections(short_params))
    sections.extend(draw_sections(long_params))
    return _render_unit(sections, long_params, t_erd_s)


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
        doc["sections"] = [
            {"center_freq_hz": s.center_freq_hz, "bandwidth_hz": s.bandwidth_hz,
             "time_sign": s.time_sign}
            for s in unit.sections
        ]
    return json.dumps(doc, indent=2, sort_keys=True)

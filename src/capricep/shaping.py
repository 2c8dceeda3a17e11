"""Ensemble variance shaping: Wasserstein cost and grid searches.

The per-sample variance across an ensemble of independently seeded
units is compared against a target envelope (rectangle or raised
cosine) after both are normalized to unit mass.  The cost is the 1-D
Wasserstein-1 distance in seconds: the L1 area between the two
cumulative sums scaled by the sample period.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import DesignParams, UnitCapricep, generate_ensemble
from .errors import DesignError, SignalError
from .fftconv import next_pow2


@dataclass(frozen=True, eq=False)
class ShapeTarget:
    kind: str  # "rectangular" | "raised_cosine"
    duration_s: float
    profile: np.ndarray  # nonnegative, sums to 1


@dataclass(frozen=True, eq=False)
class EnsembleVariance:
    variance: np.ndarray
    ensemble_size: int
    fs: float
    center_index: int


def rectangular_target(duration_s: float, fs: float, length: int, center: int) -> ShapeTarget:
    width = max(1, int(round(duration_s * fs)))
    profile = np.zeros(length)
    start = center - width // 2
    if start < 0 or start + width > length:
        raise SignalError("rectangular target does not fit the profile grid")
    profile[start:start + width] = 1.0 / width
    return ShapeTarget("rectangular", duration_s, profile)


def raised_cosine_target(duration_s: float, fs: float, length: int, center: int) -> ShapeTarget:
    width = max(3, int(round(duration_s * fs)))
    n = np.arange(width) - (width - 1) / 2.0
    lobe = 1.0 + np.cos(2.0 * np.pi * n / width)
    profile = np.zeros(length)
    start = center - width // 2
    if start < 0 or start + width > length:
        raise SignalError("raised-cosine target does not fit the profile grid")
    profile[start:start + width] = lobe / lobe.sum()
    return ShapeTarget("raised_cosine", duration_s, profile)


def ensemble_variance(
    params: DesignParams,
    t_erd_s: float,
    n_units: int,
) -> EnsembleVariance:
    """Unbiased per-sample variance over n_units independently seeded units."""
    if n_units < 2:
        raise DesignError("n_units must be at least 2")
    units = generate_ensemble(params, t_erd_s, n_units)
    stack = np.stack([u.samples for u in units])
    return EnsembleVariance(
        variance=stack.var(axis=0, ddof=1),
        ensemble_size=n_units,
        fs=params.fs,
        center_index=units[0].center_index,
    )


def pairwise_max_xcorr(units: list[UnitCapricep]) -> np.ndarray:
    """Normalized max |cross-correlation| of every pair i < j of
    equal-length units, in (0, 1), (0, 2), ..., (1, 2), ... order."""
    if len(units) < 2:
        raise DesignError(f"cross-correlation needs at least 2 units, got {len(units)}")
    stack = [u.samples for u in units]
    n_fft = next_pow2(2 * len(stack[0]) - 1)
    specs = [np.fft.rfft(x, n_fft) for x in stack]
    norms = [np.sqrt(np.dot(x, x)) for x in stack]
    maxima = []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            cc = np.fft.irfft(specs[i] * np.conj(specs[j]), n_fft)
            maxima.append(float(np.max(np.abs(cc)) / (norms[i] * norms[j])))
    return np.array(maxima)


def wasserstein_distance(v: EnsembleVariance, target: ShapeTarget) -> float:
    """W1 between unit-mass-normalized variance and target, in seconds."""
    return w1_grid(v.variance, target.profile, v.fs)


def w1_grid(mass_a: np.ndarray, mass_b: np.ndarray, fs: float) -> float:
    """Wasserstein-1 between two nonnegative masses on a shared uniform grid."""
    if len(mass_a) != len(mass_b):
        raise SignalError("masses must share a grid")
    ta, tb = float(np.sum(mass_a)), float(np.sum(mass_b))
    if ta <= 0.0 or tb <= 0.0:
        raise SignalError("zero-mass input to Wasserstein distance")
    diff = np.cumsum(mass_a / ta - mass_b / tb)
    return float(np.sum(np.abs(diff)) / fs)


def optimize_terd(
    params: DesignParams,
    grid: list[float],
    n_units: int,
) -> tuple[float, np.ndarray]:
    """Grid search for the rectangle duration closest to the variance profile.

    The ensemble is generated once with a window wide enough for the
    longest candidate; ties break toward the shorter duration.
    """
    if len(grid) == 0:
        raise DesignError("empty T_ERD grid")
    grid = sorted(float(g) for g in grid)
    v = ensemble_variance(params, max(grid), n_units)
    distances = np.array([
        wasserstein_distance(
            v, rectangular_target(g, v.fs, len(v.variance), v.center_index))
        for g in grid
    ])
    return grid[int(np.argmin(distances))], distances


def coarse_search(
    cmag_grid: list[float],
    alpha_grid: list[float],
    params: DesignParams,
    n_units: int,
    terd_grid: list[float] | None = None,
) -> list[dict]:
    """Exhaustive (cmag, alpha) sweep with per-cell T_ERD optimization.

    Returns rows {cmag, alpha, best_t_erd, cost} sorted by cost.
    """
    if terd_grid is None:
        terd_grid = list(np.arange(1.0, 2.51, 0.1) / params.fd)
    rows = []
    for cmag in cmag_grid:
        for alpha in alpha_grid:
            cell = replace(params, cmag=float(cmag), alpha=float(alpha), beta=float(alpha))
            best, distances = optimize_terd(cell, terd_grid, n_units)
            rows.append({
                "cmag": float(cmag),
                "alpha": float(alpha),
                "best_t_erd": best,
                "cost": float(np.min(distances)),
            })
    rows.sort(key=lambda r: r["cost"])
    return rows

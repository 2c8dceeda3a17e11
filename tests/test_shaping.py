"""Wasserstein shaping cost against closed forms and scipy."""
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capricep.design import DesignParams, generate_ensemble
from capricep.errors import DesignError, SignalError
from capricep.shaping import (
    coarse_search,
    ensemble_variance,
    optimize_terd,
    pairwise_max_xcorr,
    raised_cosine_target,
    rectangular_target,
    wasserstein_distance,
)

FS = 1000.0


def test_w1_of_identical_masses_is_zero():
    m = np.array([0.0, 1.0, 2.0, 0.5])
    assert wasserstein_distance(m, m, FS) == 0.0


def test_w1_of_point_masses_is_their_separation():
    a = np.zeros(100)
    b = np.zeros(100)
    a[10] = 3.0  # mass scale must not matter
    b[73] = 0.5
    assert wasserstein_distance(a, b, FS) == pytest.approx(63.0 / FS)


def test_w1_of_shifted_rectangles_is_the_shift():
    a = np.zeros(200)
    b = np.zeros(200)
    a[40:80] = 1.0
    b[55:95] = 2.0
    assert wasserstein_distance(a, b, FS) == pytest.approx(15.0 / FS)


mass = hnp.arrays(
    np.float64, st.integers(4, 40),
    elements=st.floats(0.0, 10.0),
).filter(lambda m: m.sum() > 1e-6)


@settings(max_examples=50, deadline=None)
@given(a=mass, b=mass)
def test_w1_matches_scipy_and_is_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if a.sum() <= 1e-6 or b.sum() <= 1e-6:
        return
    d = wasserstein_distance(a, b, FS)
    assert d == pytest.approx(wasserstein_distance(b, a, FS))
    pos = np.arange(n) / FS
    ref = scipy.stats.wasserstein_distance(pos, pos, a, b)
    assert d == pytest.approx(ref, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=mass, b=mass, c=mass)
def test_w1_triangle_inequality(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    if min(a.sum(), b.sum(), c.sum()) <= 1e-6:
        return
    w1 = wasserstein_distance
    assert w1(a, c, FS) <= w1(a, b, FS) + w1(b, c, FS) + 1e-12


def test_rectangular_target_geometry():
    t = rectangular_target(0.04, FS, 100, 50)
    assert t.sum() == pytest.approx(1.0)
    width = int(round(0.04 * FS))
    support = np.flatnonzero(t)
    assert len(support) == width
    assert support[0] == 50 - width // 2


def test_raised_cosine_target_peaks_at_center():
    t = raised_cosine_target(0.05, FS, 200, 100)
    assert t.sum() == pytest.approx(1.0)
    peak = int(np.argmax(t))
    assert abs(peak - 100) <= 1
    assert t[0] == 0.0 and t[-1] == 0.0


def test_target_must_fit_grid():
    with pytest.raises(SignalError, match="^rectangular target does not fit the profile grid$"):
        rectangular_target(1.0, FS, 100, 50)
    with pytest.raises(SignalError,
                       match="^raised-cosine target does not fit the profile grid$"):
        raised_cosine_target(1.0, FS, 100, 50)


def test_zero_mass_rejected():
    with pytest.raises(SignalError):
        wasserstein_distance(np.zeros(8), np.ones(8), FS)
    with pytest.raises(SignalError):
        wasserstein_distance(np.ones(8), np.ones(9), FS)


def test_ensemble_variance_shape_and_determinism():
    p = DesignParams(fs=8000.0, fd=200.0, seed=6)
    v = ensemble_variance(p, p.nominal_t_erd(), 8)
    assert len(v) == round(4.0 * p.nominal_t_erd() * 8000.0)
    assert np.all(v >= 0.0)
    again = ensemble_variance(p, p.nominal_t_erd(), 8)
    assert np.array_equal(v, again)
    with pytest.raises(DesignError):
        ensemble_variance(p, p.nominal_t_erd(), 1)


def test_variance_mass_concentrates_near_target_duration():
    p = DesignParams(fs=8000.0, fd=200.0, seed=6)
    t_erd = p.nominal_t_erd()
    v = ensemble_variance(p, t_erd, 32)
    target = rectangular_target(t_erd, 8000.0, len(v), len(v) // 2)
    # the matched rectangle should beat one twice as long
    wide = rectangular_target(2.0 * t_erd, 8000.0, len(v), len(v) // 2)
    assert wasserstein_distance(v, target, 8000.0) < wasserstein_distance(v, wide, 8000.0)


def test_optimize_terd_single_element_grid():
    p = DesignParams(fs=8000.0, fd=200.0, seed=6)
    best, dist = optimize_terd(p, [p.nominal_t_erd()], 4)
    assert best == p.nominal_t_erd()
    assert dist.shape == (1,)
    with pytest.raises(DesignError):
        optimize_terd(p, [], 4)


def test_coarse_search_rows_sorted_by_cost():
    p = DesignParams(fs=8000.0, fd=200.0, seed=6)
    grid = [1.5 / 200.0, 2.0 / 200.0]
    rows = coarse_search([1.1, 2.0 ** 0.25], [8.0], p, 4, terd_grid=grid)
    assert len(rows) == 2
    assert rows[0]["cost"] <= rows[1]["cost"]
    assert all(r["best_t_erd"] in grid for r in rows)


def test_pairwise_max_xcorr_matches_explicit_pair_loop():
    p = DesignParams(fs=8000.0, fd=250.0, seed=17)
    units = generate_ensemble(p, p.nominal_t_erd(), 5)
    n_fft = 1 << int(np.ceil(np.log2(2 * len(units[0].samples) - 1)))
    specs = [np.fft.rfft(u.samples, n_fft) for u in units]
    norms = [np.sqrt(np.dot(u.samples, u.samples)) for u in units]
    fft_loop, direct = [], []
    for i in range(5):
        for j in range(i + 1, 5):
            cc = np.fft.irfft(specs[i] * np.conj(specs[j]), n_fft)
            fft_loop.append(np.max(np.abs(cc)) / (norms[i] * norms[j]))
            cc = np.correlate(units[i].samples, units[j].samples, mode="full")
            direct.append(np.max(np.abs(cc)) / (norms[i] * norms[j]))
    got = pairwise_max_xcorr(units)
    assert np.array_equal(got, fft_loop)
    assert np.allclose(got, direct, rtol=1e-12, atol=0.0)


def test_pairwise_max_xcorr_needs_two_units():
    p = DesignParams(fs=8000.0, fd=250.0, seed=17)
    with pytest.raises(DesignError):
        pairwise_max_xcorr(generate_ensemble(p, p.nominal_t_erd(), 1))

"""Weight matrix algebra and overlap-add sequence construction."""
from dataclasses import replace

import numpy as np
import pytest

from capricep.bands import (
    band_edges,
    band_powers,
    third_octave_centers,
    to_db,
)
from capricep.design import DesignParams, UnitCapricep, derive_unit_designs, generate_unit
from capricep.errors import SignalError
from capricep.sequences import (
    B4,
    build_sequence,
    build_test_signal,
    check_session,
    default_n_o,
    default_n_repeats,
)


def _delta_unit(length: int, fs: float = 1000.0, at: int = 0) -> UnitCapricep:
    samples = np.zeros(length)
    samples[at] = 1.0
    design = DesignParams(fs=fs, fd=fs / 8.0, seed=0)
    return UnitCapricep(samples=samples, fs=fs, t_erd_s=length / fs / 4.0, design=design,
                        sections=[])


def test_weight_matrix_entries():
    assert B4.shape == (4, 8)
    assert B4.dtype.kind == "i"
    assert np.all(np.abs(B4) == 1)
    assert np.all(B4[0] == 1)


def test_rows_orthogonal_at_every_cyclic_shift():
    for i in range(4):
        for j in range(4):
            for s in range(8):
                ip = int(np.dot(B4[i], np.roll(B4[j], -s)))
                if i == j and s == 0:
                    assert ip == 8
                elif i != j:
                    assert ip == 0


def test_delta_unit_sequence_is_weighted_pulse_train():
    unit = _delta_unit(1)
    n_o, n_rep = 5, 16
    seq = build_sequence(unit, B4[2], n_o, n_rep)
    expected = np.zeros(n_o * n_rep)
    for k in range(n_rep):
        expected[k * n_o] = B4[2][k % 8]
    assert np.array_equal(seq, expected)


def test_sequence_matches_dense_convolution_oracle():
    unit = generate_unit(DesignParams(fs=8000.0, fd=500.0, seed=4))
    n_o = len(unit.samples)
    n_rep = 8
    seq = build_sequence(unit, B4[1], n_o, n_rep)
    train = np.zeros(n_o * n_rep)
    train[::n_o] = B4[1][np.arange(n_rep) % 8]
    oracle = np.convolve(train, unit.samples)
    assert len(seq) == len(oracle)
    assert np.max(np.abs(seq - oracle)) < 1e-10


def test_overlapping_shift_adds_linearly():
    unit = _delta_unit(8)
    unit_scaled = UnitCapricep(
        samples=2.0 * unit.samples, fs=unit.fs, t_erd_s=unit.t_erd_s, design=unit.design,
        sections=[])
    a = build_sequence(unit, B4[3], 4, 8)
    b = build_sequence(unit_scaled, B4[3], 4, 8)
    assert np.allclose(b, 2.0 * a)


def test_pile_up_guard_and_bad_arguments():
    unit = _delta_unit(100)
    with pytest.raises(SignalError):
        build_sequence(unit, B4[0], 2, 8)  # > 16 copies overlap
    with pytest.raises(SignalError):
        build_sequence(unit, B4[0], 10, 7)  # less than one 8-cycle
    with pytest.raises(SignalError):
        build_sequence(unit, np.ones(7), 10, 8)
    with pytest.raises(SignalError):
        build_sequence(unit, B4[0], 0, 8)


@pytest.mark.parametrize("lengths,fs,n_o,n_rep,match", [
    ((100,) * 3, 1000.0, 10, 8, "exactly 4"),
    ((100,) * 4, 2000.0, 10, 8, "share fs"),
    ((100, 100, 100, 99), 1000.0, 10, 8, "share fs and length"),
    ((100,) * 4, 1000.0, 0, 8, "n_o"),
    ((100,) * 4, 1000.0, 10, 7, "8-cycle"),
    ((100,) * 4, 1000.0, 6, 8, "overlap"),  # 17 copies
    ((100,) * 4, 1000.0, 2 ** 21, 8, "samples, over"),  # 2**24 + 99 samples
])
def test_check_session_rejects_each_layout_rule(lengths, fs, n_o, n_rep, match):
    units = [_delta_unit(n, at=i) for i, n in enumerate(lengths)]
    units[-1] = _delta_unit(lengths[-1], fs, at=len(units) - 1)
    check_session([_delta_unit(100, at=i) for i in range(4)], 7, 8)  # 15 copies pass
    with pytest.raises(SignalError, match=match):
        check_session(units, n_o, n_rep)
    if len(units) == 4:
        with pytest.raises(SignalError, match=match):
            build_test_signal(units, n_o, n_rep)


@pytest.mark.parametrize("pair", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_check_session_rejects_two_units_with_equal_samples(pair):
    """Equal units give equal sequences, which no B4 orthogonalization
    can separate into channels."""
    units = [_delta_unit(100, at=i) for i in range(4)]
    i, j = pair
    units[j] = _delta_unit(100, at=i)
    with pytest.raises(SignalError, match=f"units {i} and {j} have equal samples"):
        check_session(units, 10, 8)
    with pytest.raises(SignalError, match="equal samples"):
        build_test_signal(units, 10, 8)


def test_defaults():
    unit = _delta_unit(123)
    assert default_n_o(unit) == 123
    assert default_n_repeats(3) == 40
    with pytest.raises(SignalError):
        default_n_repeats(0)


def test_test_signal_is_sum_of_first_three_sequences():
    fs = 8000.0
    units = [generate_unit(d) for d in
             derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=8))]
    n_o, n_rep = len(units[0].samples), default_n_repeats(2)
    signal = build_test_signal(units, n_o, n_rep)
    seq = [build_sequence(u, B4[m], n_o, n_rep) for m, u in enumerate(units)]
    assert np.array_equal(signal, seq[0] + seq[1] + seq[2])
    # the fourth unit is checked but never played
    flipped = units[:3] + [replace(units[3], samples=-units[3].samples)]
    assert np.array_equal(build_test_signal(flipped, n_o, n_rep), signal)


def test_test_signal_band_spectrum_is_flat():
    fs = 8000.0
    units = [generate_unit(d) for d in
             derive_unit_designs(DesignParams(fs=fs, fd=100.0, seed=3))]
    signal = build_test_signal(units, len(units[0].samples), default_n_repeats(3))
    centers = third_octave_centers(fs)
    n_fft = 1 << int(np.ceil(np.log2(len(signal))))
    power = band_powers(signal, fs, centers, n_fft)
    lo, hi = band_edges(centers)
    psd_db = to_db(power / (hi - lo))
    keep = centers >= 2 * 100.0  # design density bounds the resolution floor
    dev = psd_db[keep] - np.median(psd_db[keep])
    assert np.max(np.abs(dev)) < 3.0


def _band_powers_by_mask(x, fs, centers, n_fft):
    spec = np.abs(np.fft.rfft(x, n_fft)) ** 2 / n_fft
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / fs)
    lo, hi = band_edges(centers)
    out = np.empty(len(centers))
    for i in range(len(centers)):
        sel = (freqs >= lo[i]) & (freqs < hi[i])
        out[i] = spec[sel].sum() if np.any(sel) else 0.0
    return out


# On the coarse 8 kHz / 256-point grid the lowest bands hold no bin.
@pytest.mark.parametrize("fs,n,n_fft", [
    (16000.0, 1111, 4096), (44100.0, 8000, 16384), (8000.0, 50, 256)])
def test_band_powers_equal_the_boolean_mask_sums(fs, n, n_fft):
    rng = np.random.default_rng(int(n))
    frames = rng.standard_normal((3, n))
    centers = third_octave_centers(fs)
    expected = [_band_powers_by_mask(f, fs, centers, n_fft) for f in frames]
    got = band_powers(frames, fs, centers, n_fft)
    assert got.shape == (3, len(centers))
    for row, want in zip(got, expected):
        assert np.array_equal(row, want)
    assert np.array_equal(got.mean(axis=0),
                          (0.0 + expected[0] + expected[1] + expected[2]) / 3)

"""Pulse compression, orthogonalization and the channel decomposition."""
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from capricep.analyzer import (
    _background_frames,
    _level_table,
    compress,
    decompose,
    find_alignment,
    orthogonalize,
    synchronous_average,
    usable_omega,
)
from capricep.bands import band_powers, third_octave_centers, to_db
from capricep.design import DesignParams, UnitCapricep, derive_unit_designs, generate_unit
from capricep.errors import AnalysisError
from capricep.fftconv import OverlapSave
from capricep.sequences import (
    B4,
    build_sequence,
    build_test_signal,
    default_n_repeats,
)
from capricep.simulator import VirtualSystem, run


def _delta_units(n=4, fs=1000.0):
    design = DesignParams(fs=fs, fd=fs / 8.0, seed=0)
    samples = np.zeros(1)
    samples[0] = 1.0
    return [UnitCapricep(samples=samples.copy(), fs=fs, center_index=0,
                         t_erd_s=0.001, design=design, sections=[])
            for _ in range(n)]


def row_cyclic_autocorr(row: np.ndarray) -> np.ndarray:
    """Normalized cyclic autocorrelation of one weight row (8 shifts)."""
    return np.array([np.dot(row, np.roll(row, -s)) for s in range(8)]) / 8.0


def test_row_cyclic_autocorr_of_constant_row():
    assert np.array_equal(row_cyclic_autocorr(B4[0]), np.ones(8))
    assert row_cyclic_autocorr(B4[1])[0] == 1.0


def test_cross_channel_leakage_is_numerically_zero():
    # delta units make compression the identity, isolating the weights
    units = _delta_units()
    n_o, n_rep = 16, 32
    for played in range(4):
        rec = build_sequence(units[played], B4[played], n_o, n_rep)
        q = compress(rec, units, n_o=n_o)
        r = orthogonalize(q, B4, n_o)
        steady = slice(0, len(rec) - 8 * n_o)
        for m in range(4):
            if m == played:
                assert np.max(np.abs(r[m][steady])) > 0.9
            else:
                assert np.max(np.abs(r[m][steady])) <= 1e-10


def test_own_channel_recovers_unit_pulse_train():
    units = _delta_units()
    n_o, n_rep = 16, 32
    rec = build_sequence(units[1], B4[1], n_o, n_rep)
    q = compress(rec, units, n_o=n_o)
    r = orthogonalize(q, B4, n_o)[1]
    steady = r[: len(rec) - 8 * n_o]
    # comb samples carry the row's cyclic autocorrelation per shift
    expected = row_cyclic_autocorr(B4[1])
    comb = steady[::n_o]
    assert np.allclose(comb, expected[np.arange(len(comb)) % 8], atol=1e-12)
    mask = np.ones(len(steady), dtype=bool)
    mask[::n_o] = False
    assert np.max(np.abs(steady[mask])) <= 1e-12


def test_orthogonalize_zero_input_and_shape_guards():
    units = _delta_units()
    q = compress(np.zeros(400), units, n_o=32)
    r = orthogonalize(q, B4, 32)
    assert all(np.all(rm == 0.0) for rm in r)
    with pytest.raises(AnalysisError):
        orthogonalize(q, B4[:3], 32)
    with pytest.raises(AnalysisError):
        compress(np.zeros(100), units, n_o=32)


def test_compress_equals_fftconvolve_of_each_reversed_unit():
    designs = derive_unit_designs(DesignParams(fs=16000.0, fd=100.0, seed=5))
    units = [generate_unit(d) for d in designs]
    rec = np.random.default_rng(5).standard_normal(37_501)
    # units of differing lengths share one transform grid
    mixed = [units[0], _delta_units(1, 16000.0)[0], units[1]]
    for us in (units, mixed):
        q = compress(rec, us, n_o=1111).q
        for qm, u in zip(q, us):
            ref = fftconvolve(rec, u.samples[::-1], mode="full")
            assert qm.shape == ref.shape
            assert np.max(np.abs(qm - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_find_alignment_on_clean_comb():
    n_o = 200
    x = np.zeros(n_o * 12)
    x[37::n_o] = 1.0
    n_ini = find_alignment(x, n_o)
    assert n_ini == 37 - n_o // 8
    # compress refuses a recording under 8 n_o first, so decompose cannot get here
    with pytest.raises(AnalysisError, match="two pulse periods"):
        find_alignment(x[:2 * n_o - 1], n_o)


def test_find_alignment_skips_weak_warmup():
    n_o = 200
    x = np.zeros(n_o * 12)
    x[37 + n_o::n_o] = 1.0
    x[37] = 0.05  # leading partial pulse below the steady level
    assert find_alignment(x, n_o) == 37 + n_o - n_o // 8


@pytest.mark.parametrize("n_avg", [4, 16])
def test_synchronous_average_noise_reduction(n_avg):
    rng = np.random.default_rng(42)
    n_o = 4096
    noise = rng.standard_normal(8 * n_o * (n_avg + 1))
    omega = list(range(n_avg))
    avg = synchronous_average(noise, 0, n_o, omega)
    ratio = np.std(noise) / np.std(avg)
    assert ratio == pytest.approx(np.sqrt(n_avg), rel=0.2)


def test_synchronous_average_single_cycle_is_identity():
    x = np.arange(100.0)
    assert np.array_equal(synchronous_average(x, 3, 10, [0]), x[3:13])
    with pytest.raises(AnalysisError):
        synchronous_average(x, 3, 10, [])
    with pytest.raises(AnalysisError):
        synchronous_average(x, 3, 10, [5])


def test_usable_omega_excludes_warmup_and_cooldown():
    omega = usable_omega(10, 40, n_ini=5, q_length=40 * 10 + 100)
    assert omega == [1, 2, 3]
    # shorter recording drops trailing cycles
    omega = usable_omega(10, 40, n_ini=5, q_length=30 * 10)
    assert omega == [1]


def _usable_omega_loop(n_o, n_repeats, n_ini, q_length):
    omega = []
    for k in range(1, n_repeats // 8 - 1):
        end = n_ini + (7 + 8 * k) * n_o + n_o
        if end <= q_length - 7 * n_o:
            omega.append(k)
    return omega


def test_usable_omega_equals_the_cycle_loop():
    for n_o in (1, 3, 10, 77):
        for n_repeats in (7, 8, 16, 24, 40, 47, 80):
            for n_ini in (0, 1, n_o - 1, 5 * n_o + 2):
                for q_length in range(0, 12 * 8 * n_o, max(1, 8 * n_o // 3)):
                    assert (usable_omega(n_o, n_repeats, n_ini, q_length)
                            == _usable_omega_loop(n_o, n_repeats, n_ini, q_length))
    # a sidecar's n_repeats does not set the cost: the recording bounds omega
    assert usable_omega(100, 8 * 10**9, 0, 50 * 8 * 100) == list(range(1, 49))


def test_decompose_identity_system_recovers_flat_response():
    fs = 8000.0
    designs = derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=13))
    units = [generate_unit(d) for d in designs]
    session = (units, len(units[0].samples), 8 * 5)
    signal = build_test_signal(*session)
    system = VirtualSystem(lti_ir=(1.0,))
    rec, pre = run(system, signal, fs, pre_silence_s=0.2)
    result = decompose(rec, pre, *session)
    assert result.omega_size >= 1
    # LTI channel concentrates in one sample (unit autocorrelation peak)
    peak = np.max(np.abs(result.lti_raw))
    assert peak == pytest.approx(1.0, rel=0.05)
    rest = np.sort(np.abs(result.lti_raw))[:-1]
    assert rest[-1] < 0.1 * peak
    # channel levels table is complete and background present
    for key in ("freq_hz", "lti_l_db", "lti_s_db", "nonl_ti_db",
                "rntv_db", "pre_bg_db", "rntv_raw_db"):
        assert key in result.levels_db
        assert len(result.levels_db[key]) == len(result.levels_db["freq_hz"])


# A silence of 3 n_o fits one overlap-save frame; one of 20,000 samples
# spans several, each dropping its wrapped head.
@pytest.mark.parametrize("n_silence,one_frame", [(3 * 222, True), (20_000, False)])
def test_background_frames_are_the_valid_compression_of_the_silence(n_silence, one_frame):
    units = [generate_unit(d) for d in
             derive_unit_designs(DesignParams(fs=8000.0, fd=250.0, seed=17))]
    u4 = units[3].samples
    n_o, scale = len(u4), 0.4
    assert n_o == 222
    silence = np.random.default_rng(n_silence).standard_normal(n_silence) * 0.1
    assert (OverlapSave(silence, n_o).skip == 0) == one_frame
    frames = _background_frames(silence, u4, n_o, scale)
    valid = fftconvolve(silence / scale, u4[::-1], mode="valid")
    n_frames = len(valid) // n_o
    assert frames.shape == (n_frames, n_o)
    want = valid[:n_frames * n_o].reshape(n_frames, n_o)
    assert np.max(np.abs(frames - want)) <= 1e-12 * np.max(np.abs(want))


def test_background_of_a_silence_shorter_than_the_unit_is_invalid():
    """Without a sample where the whole unit overlaps the silence there
    is no compressed background to measure."""
    u4 = generate_unit(DesignParams(fs=8000.0, fd=250.0, seed=17)).samples
    n_o = len(u4) // 4
    silence = np.full(2 * n_o, 1e-3)
    assert len(silence) < len(u4)
    assert _background_frames(silence, u4, n_o, 1.0) is None


def test_level_table_averages_each_frame_stack_in_power():
    fs, n_o, n_fft = 8000.0, 200, 512
    rng = np.random.default_rng(23)
    lti_raw = rng.standard_normal(n_o)
    dev_stack = rng.standard_normal((3, n_o))
    w4 = rng.standard_normal((5, n_o))
    background = 0.1 * rng.standard_normal((4, n_o))
    levels = _level_table(fs, n_o, lti_raw, dev_stack, w4, background)

    centers = third_octave_centers(fs)
    def mean_power(frames):
        return sum(band_powers(f, fs, centers, n_fft) for f in frames) / len(frames)
    ref = band_powers(lti_raw, fs, centers, n_fft).max()
    rntv_raw, bg = 8.0 * mean_power(w4), mean_power(background)
    want = {"nonl_ti_db": mean_power(dev_stack), "rntv_raw_db": rntv_raw, "pre_bg_db": bg,
            "rntv_db": np.maximum(rntv_raw - bg, 0.0)}
    for key, power in want.items():
        np.testing.assert_allclose(levels[key], to_db(power, ref), rtol=0, atol=1e-9,
                                   err_msg=key)


def test_decompose_without_silence_marks_background_invalid():
    fs = 8000.0
    designs = derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=13))
    units = [generate_unit(d) for d in designs]
    session = (units, len(units[0].samples), 8 * 5)
    clipped = np.full(4 * session[1], 1e-3)
    clipped[7] = 1.0  # at full scale: background estimation is skipped
    for pre in (None, clipped):
        result = decompose(build_test_signal(*session), pre, *session)
        assert not result.background_valid


def _decompose_reference(recorded, pre_silence, units, n_o, n_repeats, scale):
    """The channels and level table rebuilt the long way round: the
    full-length ``orthogonalize`` channels, then one ``synchronous_average``
    and one copied window per usable cycle."""
    comp = compress(np.asarray(recorded, dtype=float) / scale, units, n_o)
    n_ini = comp.alignment
    r_itr = orthogonalize(comp, B4, n_o)
    omega = usable_omega(n_o, n_repeats, n_ini, len(comp.q[0]))
    r_m = [synchronous_average(r_itr[m], n_ini, n_o, omega) for m in range(3)]
    lti_raw = (r_m[0] + r_m[1] + r_m[2]) / 3.0
    dev_stack = np.stack([rm - lti_raw for rm in r_m])
    w4 = np.stack([r_itr[3][n_ini + 8 * k * n_o:n_ini + 8 * k * n_o + n_o] for k in omega])
    background = _background_frames(pre_silence, units[3].samples, n_o, scale)
    levels = _level_table(units[0].fs, n_o, lti_raw, dev_stack, w4, background)
    return (lti_raw, np.sqrt((dev_stack ** 2).mean(axis=0)),
            np.sqrt((w4 ** 2).mean(axis=0)) * np.sqrt(8.0), levels,
            n_ini, len(omega), background is not None)


def _assert_decompose_matches_reference(recorded, pre_silence, session, scale):
    """decompose folds each cycle before it correlates, so it adds in
    another order than the reference: the alignment, the cycle count and
    the background flag agree exactly, the channels to 1e-12 of the LTI
    peak and every level to 1e-9 dB."""
    result = decompose(recorded, pre_silence, *session, scale=scale)
    lti_raw, nonl, rntv, levels, n_ini, n_cycles, background_valid = _decompose_reference(
        recorded, pre_silence, *session, scale)
    assert (result.n_ini, result.omega_size, result.background_valid) == (
        n_ini, n_cycles, background_valid)
    bound = 1e-12 * np.max(np.abs(lti_raw))
    for name, got, want in (("lti_raw", result.lti_raw, lti_raw),
                            ("nonlinear_ti", result.nonlinear_ti, nonl),
                            ("random_tv", result.random_tv, rntv)):
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= bound, name
    assert result.levels_db.keys() == levels.keys()
    for key, column in levels.items():
        np.testing.assert_allclose(result.levels_db[key], column, rtol=0, atol=1e-9,
                                   err_msg=key)
    return result


def _simulated_session(fs, fd, cycles, seed, n_o=None):
    units = [generate_unit(d) for d in derive_unit_designs(DesignParams(fs=fs, fd=fd, seed=seed))]
    session = (units, n_o or len(units[0].samples), default_n_repeats(cycles))
    scale = 0.4
    system = VirtualSystem(lti_ir=(1.0, 0.0, -0.3, 0.1), nl_coeffs=(1.0, 0.0, 0.05),
                           noise_level_db=-60.0, drift=(2.0, 0.1),
                           latency_samples=123, noise_seed=seed)
    rec, pre = run(system, build_test_signal(*session) * scale, fs, pre_silence_s=0.5)
    return session, scale, rec, pre


@pytest.mark.parametrize("fs,fd,cycles,seed", [(8000.0, 250.0, 4, 21), (16000.0, 100.0, 3, 22)])
def test_decompose_equals_full_length_orthogonalize_then_average(fs, fd, cycles, seed):
    session, scale, rec, pre = _simulated_session(fs, fd, cycles, seed)
    for silence in (pre, None):
        result = _assert_decompose_matches_reference(rec, silence, session, scale)
        assert result.omega_size >= 3
        assert result.background_valid == (silence is not None)


@pytest.mark.parametrize("layout", ["third", "double", "eighth_plus_one"])
def test_decompose_fold_matches_the_reference_when_n_o_is_not_the_unit_length(layout):
    length = 222  # the unit length at 8 kHz / fd 250 Hz
    n_o = {"third": length // 3, "double": 2 * length, "eighth_plus_one": length // 8 + 1}[layout]
    session, scale, rec, pre = _simulated_session(8000.0, 250.0, 3, 23, n_o=n_o)
    assert len(session[0][0].samples) == length
    result = _assert_decompose_matches_reference(rec, pre, session, scale)
    assert result.omega_size == 3


def test_decompose_fold_pads_slots_past_both_ends_of_the_recording():
    """Slots that reach before the recording or past its end read the
    zeros a full compression pads it with.  On this noise recording at the
    densest layout check_session allows, the first usable slot starts 11
    samples before the recording and the last ends 44 samples past it."""
    units = [generate_unit(d) for d in
             derive_unit_designs(DesignParams(fs=8000.0, fd=250.0, seed=21))]
    length = len(units[0].samples)
    n_o, n_repeats = -(-length // 16), 8 * 40
    rec = np.random.default_rng(2182).standard_normal(2182)
    n_ini = compress(rec, units[:1], n_o).alignment
    omega = usable_omega(n_o, n_repeats, n_ini, len(rec) + length - 1)
    assert n_ini + 8 * n_o * omega[0] < length - 1
    assert n_ini + 8 * n_o * (omega[-1] + 1) > len(rec)
    _assert_decompose_matches_reference(rec, None, (units, n_o, n_repeats), 1.0)


def test_decompose_traced_peak_stays_a_few_recordings():
    """decompose compresses the recording with unit 0 alone and folds the
    rest per cycle, so its traced allocation peak on this 20-cycle session
    (39,351 samples) is about 4.4 times the recording's float64 bytes; the
    four full-length compressions it replaced took about 7.7 times."""
    fs = 8000.0
    units = [generate_unit(d) for d in derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=3))]
    session = (units, len(units[0].samples), default_n_repeats(20))
    system = VirtualSystem(lti_ir=(1.0, 0.2), noise_level_db=-50.0, latency_samples=57,
                           noise_seed=3)
    rec, pre = run(system, build_test_signal(*session), fs, pre_silence_s=0.5)
    decompose(rec, pre, *session)  # first-call allocations are not the function's
    tracemalloc.start()
    try:
        decompose(rec, pre, *session)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * rec.nbytes


def test_decompose_without_usable_cycle_raises():
    fs = 8000.0
    units = [generate_unit(d) for d in derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=13))]
    session = (units, len(units[0].samples), 16)  # warm-up and cool-down only
    with pytest.raises(AnalysisError, match="one clean cycle"):
        decompose(build_test_signal(*session), None, *session)


@pytest.mark.parametrize("fault,message", [
    ("NaN silence", "silence contains NaN or inf"),
    ("silent recording", "LTI response has no energy"),
])
def test_decompose_rejects_nan_silence_or_a_silent_recording(fault, message):
    fs = 8000.0
    units = [generate_unit(d) for d in derive_unit_designs(DesignParams(fs=fs, fd=250.0, seed=13))]
    session = (units, len(units[0].samples), 8 * 5)
    recorded = build_test_signal(*session)
    pre = np.full(4 * session[1], 1e-3)
    if fault == "NaN silence":
        pre[7] = np.nan
    else:
        recorded[:] = 0.0
    with pytest.raises(AnalysisError, match=message):
        decompose(recorded, pre, *session)

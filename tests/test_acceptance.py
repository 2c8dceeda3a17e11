"""Top-level acceptance checks for the whole toolkit.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  Criteria 3 and 5 generate large ensembles and take about a
minute together; everything else is fast.
"""
import time

import numpy as np
import pytest

from capricep.allpass import cascade_phase
from capricep.analyzer import compress, decompose, orthogonalize
from capricep.augment import augment
from capricep.cli import main
from capricep.design import (
    DesignParams,
    derive_unit_designs,
    draw_sections,
    first_order_count,
    generate_ensemble,
    generate_unit,
)
from capricep.sequences import B4, build_sequence, build_test_signal, default_n_repeats
from capricep.shaping import optimize_terd, pairwise_max_xcorr
from capricep.simulator import VirtualSystem, run


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_allpass_exactness():
    params = DesignParams(fs=44100.0, fd=40.0, seed=0)
    t0 = time.perf_counter()
    unit = generate_unit(params)
    elapsed = time.perf_counter() - t0
    # untruncated response on the synthesis grid
    resp = cascade_phase(unit.sections, params.fs, 1 << 14)
    h = np.fft.irfft(np.exp(1j * resp.phase_half), 1 << 14)
    mag = np.abs(np.fft.rfft(h))
    mag_err = float(np.max(np.abs(mag - 1.0)))
    energy_err = abs(float(np.dot(h, h)) - 1.0)
    ok = mag_err <= 1e-12 and energy_err <= 1e-9 and elapsed < 1.0
    _report("all-pass exactness",
            ok, f"|mag-1|max={mag_err:.2e} |energy-1|={energy_err:.2e} "
                f"gen={elapsed:.2f}s")


def test_criterion_02_section_count():
    counts = []
    for seed in range(50):
        p = DesignParams(fs=44100.0, fd=40.0, seed=seed)
        counts.append(first_order_count(draw_sections(p)))
    mean = float(np.mean(counts))
    ok = 1080.0 <= mean <= 1125.0
    _report("section count", ok, f"mean first-order count = {mean:.2f} over 50 seeds")


def test_criterion_03_terd_optimum():
    fd = 40.0
    p = DesignParams(fs=44100.0, fd=fd, seed=0)
    grid = list(np.arange(1.0, 2.5 + 1e-9, 0.05) / fd)
    best, _ = optimize_terd(p, grid, 500)
    ratio = best * fd
    ok = 1.64 <= ratio <= 1.84
    _report("T_ERD optimum", ok, f"best duration = {ratio:.3f} / fd (500 units)")


def test_criterion_04_crosscorr_median():
    p = DesignParams(fs=44100.0, fd=40.0, seed=0)
    maxima = pairwise_max_xcorr(generate_ensemble(p, p.nominal_t_erd(), 100))
    med = float(np.median(maxima))
    ok = 0.06 <= med <= 0.12
    _report("cross-correlation median", ok,
            f"median max|xcorr| = {med:.4f} over {len(maxima)} pairs")


def test_criterion_05_compression_background():
    fs = 44100.0
    t_erd = 0.2
    p = DesignParams(fs=fs, fd=1.736 / t_erd, seed=0)
    units = [generate_unit(d, t_erd) for d in derive_unit_designs(p)]
    n_o = len(units[0].samples)  # 0.8 s window
    n_rep = default_n_repeats(3)
    # all three sequences play at once; q1's background is the
    # cross-talk from the other two, which orthogonalization removes
    rec = build_test_signal(units, n_o, n_rep)
    q = compress(rec, units, n_o=n_o)

    def pulse_to_background_db(x):
        # steady-state region away from ramp-in and tail
        lo, hi = 9 * n_o, len(x) - 10 * n_o
        seg = x[lo:hi]
        e = seg * seg
        peak_pos = int(np.argmax(e))
        phase = np.arange(len(seg)) - peak_pos
        dist = np.abs((phase + n_o // 2) % n_o - n_o // 2)
        half_pulse = int(t_erd * fs / 2)
        bg = np.sqrt(np.mean(e[dist > half_pulse]))
        return 20.0 * np.log10(np.sqrt(e[peak_pos]) / bg)

    raw_db = pulse_to_background_db(q.q[0])
    r = orthogonalize(q, B4, n_o)[0]
    orth_db = pulse_to_background_db(r)
    ok = 40.0 <= raw_db <= 50.0 and orth_db - raw_db >= 20.0
    _report("compression background", ok,
            f"q1 pulse/background = {raw_db:.1f} dB, "
            f"orthogonalized gain = +{orth_db - raw_db:.1f} dB")


def test_criterion_06_orthogonality_exact():
    inner = B4 @ B4.T  # integer arithmetic
    exact = np.array_equal(inner, 8 * np.eye(4, dtype=int))
    # delta-unit leakage via the analyzer path
    from capricep.design import UnitCapricep
    d = DesignParams(fs=1000.0, fd=125.0, seed=0)
    delta = np.zeros(1)
    delta[0] = 1.0
    units = [UnitCapricep(samples=delta.copy(), fs=1000.0, center_index=0,
                          t_erd_s=0.001, design=d, sections=[]) for _ in range(4)]
    n_o = 16
    rec = build_sequence(units[0], B4[0], n_o, 32)
    r = orthogonalize(compress(rec, units, n_o=n_o), B4, n_o)
    steady = slice(0, len(rec) - 8 * n_o)
    leak = max(float(np.max(np.abs(r[m][steady]))) for m in (1, 2, 3))
    ok = exact and leak <= 1e-10
    _report("orthogonality", ok,
            f"B4 inner products exact = {exact}, leakage = {leak:.1e}")


def _measure(system, session, signal, fs, scale):
    rec, pre = run(system, signal * scale, fs, pre_silence_s=1.0)
    return decompose(rec, pre, *session, scale=scale)


def test_criterion_07_end_to_end_decomposition():
    fs = 16000.0
    rng = np.random.default_rng(1)
    taps = rng.standard_normal(2048) * np.exp(-np.arange(2048) / 300.0)
    taps /= np.sqrt(np.dot(taps, taps))
    base = DesignParams(fs=fs, fd=20.0, seed=42)
    units = [generate_unit(d) for d in derive_unit_designs(base)]
    n_o = len(units[0].samples)
    session = (units, n_o, default_n_repeats(3))
    signal = build_test_signal(*session)
    scale = 0.5 / float(np.max(np.abs(signal)))

    t0 = time.perf_counter()
    clean = _measure(VirtualSystem(lti_ir=tuple(taps), latency_samples=777),
                     session, signal, fs, scale)
    case_s = time.perf_counter() - t0
    est = clean.lti_raw
    # locate the FIR start by correlation, not by its peak sample
    from scipy.signal import fftconvolve
    cc = fftconvolve(est, taps[::-1], mode="full")
    start = int(np.argmax(np.abs(cc))) - (len(taps) - 1)
    seg = est[start:start + 2048]
    gain = float(np.dot(taps, seg)) / float(np.dot(seg, seg))
    err = taps - gain * seg
    snr_db = 10.0 * np.log10(np.dot(taps, taps) / np.dot(err, err))

    nl_levels = []
    for c3 in (0.0, 0.01, 0.03, 0.1):
        res = _measure(
            VirtualSystem(lti_ir=tuple(taps), nl_coeffs=(1.0, 0.0, c3)),
            session, signal, fs, scale)
        nl_levels.append(float(20.0 * np.log10(
            np.sqrt(np.mean(res.nonlinear_ti ** 2)))))
    monotone = all(b > a for a, b in zip(nl_levels, nl_levels[1:]))

    noisy = _measure(
        VirtualSystem(lti_ir=tuple(taps), noise_level_db=-40.0, noise_seed=5),
        session, signal, fs, scale)
    rntv_db = 20.0 * np.log10(
        np.sqrt(np.mean(noisy.random_tv ** 2)) * scale)
    ok = (snr_db >= 40.0 and monotone and abs(rntv_db - (-40.0)) <= 3.0
          and case_s < 60.0)
    _report("end-to-end decomposition", ok,
            f"LTI SNR = {snr_db:.1f} dB, nonl-TI levels (dB) = "
            f"{[f'{v:.1f}' for v in nl_levels]}, RNTV = {rntv_db:.2f} dB "
            f"vs -40 injected, {case_s:.0f}s/case")


def test_criterion_08_synchronous_averaging_gain():
    from capricep.analyzer import synchronous_average
    rng = np.random.default_rng(7)
    n_o = 4096
    details = []
    ok = True
    for n_avg in (4, 16):
        noise = rng.standard_normal(8 * n_o * (n_avg + 1))
        avg = synchronous_average(noise, 0, n_o, list(range(n_avg)))
        ratio = float(np.std(noise) / np.std(avg))
        ok = ok and abs(ratio - np.sqrt(n_avg)) <= 0.2 * np.sqrt(n_avg)
        details.append(f"#={n_avg}: {ratio:.2f} (target {np.sqrt(n_avg):.2f})")
    _report("synchronous averaging gain", ok, ", ".join(details))


def test_criterion_09_augmentation():
    fs = 16000.0
    x = np.zeros(int(fs))
    x[::400] = 1.0  # strongly right-skewed pulse train
    variants, rep = augment(x, fs, n_variants=4, seed=11)
    e = float(np.dot(x, x))
    energy_ok = all(abs(np.dot(v, v) / e - 1.0) <= 0.01 for v in variants)
    band_dev = float(np.max(np.abs(rep.spectra_delta_db)))
    skew_ok = bool(np.all(np.abs(rep.skewness[1:]) < 0.5 * rep.skewness[0]))

    identity_params = DesignParams(fs=fs, fd=fs, seed=0)
    ident, _ = augment(x, fs, base_params=identity_params, n_variants=1)
    ident_ok = np.array_equal(ident[0], x)
    ok = energy_ok and band_dev <= 0.5 and skew_ok and ident_ok
    _report("augmentation", ok,
            f"energy ±1% = {energy_ok}, band deviation = {band_dev:.3f} dB, "
            f"skew {rep.skewness[0]:.1f} -> {np.max(np.abs(rep.skewness[1:])):.2f}, "
            f"identity bit-exact = {ident_ok}")


def test_criterion_10_cli_reproducibility(tmp_path):
    args = ["--fs", "8000", "--fd", "250", "--seed", "13"]
    runs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["design", *args, "--out-dir", str(d)]) == 0
        assert main(["make-signal", *args, "--out-dir", str(d)]) == 0
        runs.append(tuple(
            (d / name).read_bytes()
            for name in ("unit.wav", "unit.json", "test_signal.wav",
                         "test_signal.json")))
    ok = runs[0] == runs[1]
    _report("CLI reproducibility", ok,
            "two seeded runs byte-identical" if ok else "outputs differ")

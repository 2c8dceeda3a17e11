"""The benchmark workloads: inputs, one pass, and output checks.

Every workload derives its inputs from (its own base seed, the run
seed), drives capricep only through ``capricep.cli.main`` or
``capricep.augment.augment``, and repeats the same inputs on every pass
of a run so pass times are comparable.  The checks are computed by the
benchmark itself (or from the method's own properties), never by
asking the program to grade its own output.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import struct
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from scipy.signal import freqz, lfilter
from scipy.stats import wasserstein_distance

import capricep.cli
from capricep.augment import augment
from capricep.design import DesignParams, generate_ensemble, next_pow2
from capricep.allpass import cascade_phase

BASE_SEEDS = {"measure": 202, "augment": 303}


def derived_seed(workload: str, run_seed: int, stream: int = 0) -> int:
    """Program seed for one input stream of a workload and run seed."""
    ss = np.random.SeedSequence([BASE_SEEDS[workload], int(run_seed), stream])
    return int(ss.generate_state(1)[0] % (2 ** 31))


class Ops:
    """Closed-loop operation runner: counts and optionally traces calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.last_stdout = ""

    def call(self, name, fn, *args, **kwargs):
        """Run one operation; returns its result, or None if it raised."""
        self.attempted += 1
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                if self.tracer is None:
                    return fn(*args, **kwargs)
                with self.tracer.span("op." + name):
                    return fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.last_stdout = buf.getvalue()

    def cli(self, name, argv) -> bool:
        """Run one ``capricep`` subcommand in-process; True on exit code 0."""
        code = self.call(name, capricep.cli.main, [str(a) for a in argv])
        if code is not None and code != 0:
            self.failed += 1
            print(f"{name}: exit code {code}", file=sys.stderr)
        return code == 0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def read_float_wav(path) -> np.ndarray:
    """Minimal independent reader for mono IEEE-float32 WAV files."""
    data = Path(path).read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not RIFF/WAVE")
    pos, payload = 12, None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        size = int.from_bytes(data[pos + 4:pos + 8], "little")
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt, channels = struct.unpack("<HH", body[:4])
            if fmt != 3 or channels != 1:
                raise ValueError(f"{path}: expected mono float32")
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    return np.frombuffer(payload, "<f4").astype(np.float64)


def _rms_db(x: np.ndarray) -> float:
    return 10.0 * np.log10(float(np.mean(np.asarray(x) ** 2)))


def aligned_snr_db(ref: np.ndarray, est: np.ndarray) -> float:
    """SNR of est against ref after the best integer lag and scalar gain."""
    n = next_pow2(len(ref) + len(est))
    cc = np.fft.irfft(np.fft.rfft(est, n) * np.conj(np.fft.rfft(ref, n)), n)
    lag = int(np.argmax(np.abs(cc)))
    if lag > n // 2:
        lag -= n
    seg = np.zeros(len(ref))
    lo, hi = max(0, lag), min(len(est), lag + len(ref))
    seg[lo - lag:hi - lag] = est[lo:hi]
    gain = float(np.dot(ref, seg)) / float(np.dot(seg, seg))
    err = ref - gain * seg
    return 10.0 * np.log10(float(np.dot(ref, ref)) / float(np.dot(err, err)))


class Workload:
    name = ""
    op_metrics = {}  # operation-level figure -> unit

    def __init__(self, run_seed: int, work_dir: Path):
        self.seed = run_seed
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)

    def prepare(self):
        """Write the run's inputs (not timed)."""

    def warm_up(self, ops: Ops):
        """Small instance of the pass, run once before timing starts."""

    def run_pass(self, ops: Ops) -> dict:
        """One timed pass; returns op-level metric values."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the pass's outputs, equal on every pass of a run."""
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class Measure(Workload):
    """optimize and xcorr-stats of the design, then make-signal ->
    simulate (linear and cubic systems) -> analyze at fs 16 kHz,
    fd 100 Hz, 40 analysis cycles (~23 s recording)."""

    name = "measure"
    FS, FD, CYCLES = 16000.0, 100.0, 40
    # Small ensembles: the design searches run the shaping layer and the
    # pairwise correlation without letting unit synthesis dominate the pass.
    OPT_UNITS = 4
    XCORR_UNITS = 4
    FIR_TAPS = 256
    NOISE_DB = -50.0
    CUBIC = 0.2
    op_metrics = {"terd_search_s": "s", "xcorr_stats_s": "s",
                  "make_signal_s": "s", "analyze_s": "s"}

    def prepare(self):
        rng = np.random.default_rng(derived_seed(self.name, self.seed, 1))
        self.program_seed = derived_seed(self.name, self.seed)
        k = np.arange(self.FIR_TAPS)
        fir = rng.normal(0.0, 1.0, self.FIR_TAPS) * np.exp(-k / 40.0) * 0.3
        fir[0] = 1.0
        self.fir = fir / np.sqrt(np.sum(fir * fir))
        latency = int(rng.integers(40, 400))
        noise_seed = int(rng.integers(0, 2 ** 31))
        self.systems = {}
        for label, nl in (("linear", [1.0]), ("cubic", [1.0, 0.0, self.CUBIC])):
            spec = {"lti_ir": self.fir.tolist(), "nl_coeffs": nl,
                    "noise_level_db": self.NOISE_DB, "latency_samples": latency,
                    "noise_seed": noise_seed}
            path = self.dir / f"system_{label}.json"
            path.write_text(json.dumps(spec))
            self.systems[label] = path

    def _session(self, ops, fs, fd, cycles, out):
        """make-signal, then simulate + analyze per system; returns the
        make-signal time and the analyze times, or None on a failure."""
        t0 = time.perf_counter()
        ok = ops.cli("make-signal", ["make-signal", "--fs", fs, "--fd", fd,
                                     "--seed", self.program_seed, "--cycles", cycles,
                                     "--out-dir", out])
        make_s = time.perf_counter() - t0
        analyze_s, self.analyze_stdout = [], []
        for label, system in self.systems.items():
            ok = ok and ops.cli("simulate", ["simulate", "--signal", out / "test_signal.wav",
                                             "--system", system, "--out-dir", out / label])
            t0 = time.perf_counter()
            ok = ok and ops.cli("analyze", ["analyze",
                                            "--recording", out / label / "response.wav",
                                            "--silence", out / label / "silence.wav",
                                            "--sidecar", out / "test_signal.json",
                                            "--out-dir", out / label / "analysis"])
            analyze_s.append(time.perf_counter() - t0)
            self.analyze_stdout.append(ops.last_stdout)
        return (make_s, analyze_s) if ok else None

    def _design(self, ops, fs, fd, out):
        """T_ERD grid search and pairwise cross-correlation of the design;
        returns their times, or None on a failure."""
        common = ["--fs", fs, "--fd", fd, "--seed", self.program_seed, "--out-dir", out]
        t0 = time.perf_counter()
        ok = ops.cli("optimize", ["optimize", *common, "--units", self.OPT_UNITS])
        t1 = time.perf_counter()
        ok = ok and ops.cli("xcorr-stats", ["xcorr-stats", *common, "--count", self.XCORR_UNITS])
        t2 = time.perf_counter()
        return (t1 - t0, t2 - t1) if ok else None

    def warm_up(self, ops):
        self._design(ops, 8000, 400, self.dir / "warm" / "design")
        self._session(ops, 8000, 400, 1, self.dir / "warm")

    def run_pass(self, ops):
        out = self.dir / "out"
        design = self._design(ops, self.FS, self.FD, out / "design")
        timed = design and self._session(ops, self.FS, self.FD, self.CYCLES, out)
        if not timed:
            return None
        (terd_s, xcorr_s), (make_s, analyze_s) = design, timed
        return {"terd_search_s": terd_s, "xcorr_stats_s": xcorr_s,
                "make_signal_s": make_s, "analyze_s": float(np.mean(analyze_s))}

    def _outputs(self):
        out = self.dir / "out"
        files = [out / "design" / "terd_search.csv", out / "design" / "xcorr_stats.csv",
                 out / "test_signal.wav", out / "test_signal.json"]
        for label in self.systems:
            a = out / label / "analysis"
            files += [out / label / "response.wav", out / label / "silence.wav",
                      a / "lti_raw.wav", a / "nonl_ti.wav", a / "rntv.wav", a / "levels.csv"]
        return files

    def fingerprint(self):
        return _digest(self._outputs())

    def check(self):
        out = self.dir / "out"
        results = self._check_design(out / "design")
        scale = json.loads((out / "test_signal.json").read_text())["scale"]
        lin = out / "linear" / "analysis"
        cub = out / "cubic" / "analysis"

        lti = read_float_wav(lin / "lti_raw.wav")
        snr = aligned_snr_db(self.fir, lti)
        results.append(("lti_snr_vs_fir_>=40dB", snr >= 40.0, f"{snr:.2f} dB"))

        rntv = read_float_wav(lin / "rntv.wav")
        rntv_db = _rms_db(rntv * scale)
        results.append(("rntv_within_3dB_of_noise", abs(rntv_db - self.NOISE_DB) <= 3.0,
                        f"{rntv_db:.2f} dB vs {self.NOISE_DB:.0f} dB"))

        nl_lin = _rms_db(read_float_wav(lin / "nonl_ti.wav"))
        nl_cub = _rms_db(read_float_wav(cub / "nonl_ti.wav"))
        results.append(("cubic_nonl_ti_exceeds_linear", nl_cub > nl_lin,
                        f"{nl_cub:.2f} dB vs {nl_lin:.2f} dB"))

        cycles = [int(m) for m in re.findall(r"cycles=(\d+)", "".join(self.analyze_stdout))]
        results.append(("all_40_cycles_usable",
                        len(cycles) == 2 and all(c == self.CYCLES for c in cycles),
                        f"{cycles}"))
        return results

    def _check_design(self, out):
        fs, fd = self.FS, self.FD
        params = DesignParams(fs=fs, fd=fd, seed=self.program_seed)
        results = []

        # T_ERD search: every distance equals scipy's W1 between the
        # ensemble's unit-mass variance and the centered rectangle.
        with open(out / "terd_search.csv") as f:
            rows = list(csv.DictReader(f))
        grid = [float(r["t_erd_s"]) for r in rows]
        units = generate_ensemble(params, max(grid), self.OPT_UNITS)
        variance = np.stack([u.samples for u in units]).var(axis=0, ddof=1)
        t = np.arange(len(variance)) / fs
        got = [float(r["wasserstein_s"]) for r in rows]
        err = 0.0
        for g, dist in zip(grid, got):
            width = max(1, int(round(g * fs)))
            target = np.zeros(len(variance))
            start = units[0].center_index - width // 2
            target[start:start + width] = 1.0
            want = wasserstein_distance(t, t, variance, target)
            err = max(err, abs(dist - want) / want)
        best = grid[int(np.argmin(got))] * fd
        results.append(("terd_distances_match_scipy_w1_<=1e-9", err <= 1e-9,
                        f"max rel err {err:.1e}, best {best:.2f}/fd"))

        units = generate_ensemble(params, params.nominal_t_erd(), self.XCORR_UNITS)
        energies = [u.energy for u in units]
        results.append(("kept_energy_in_[0.99,1]",
                        all(0.99 <= e <= 1.0 for e in energies),
                        f"min {min(energies):.6f} max {max(energies):.6f}"))

        worst = 0.0
        for u in (units[0], units[-1]):
            n_fft = next_pow2(2 * len(u.samples))
            phase = cascade_phase(u.sections, fs, n_fft).phase_half
            w = 2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
            prod = np.ones(len(w), dtype=complex)
            for sec in u.sections:
                r = np.exp(-np.pi * sec.bandwidth_hz / fs)
                c = 2.0 * r * np.cos(2.0 * np.pi * sec.center_freq_hz / fs)
                _, h = freqz([r * r, -c, 1.0], [1.0, -c, r * r], worN=w)
                prod *= h if sec.time_sign == 1 else np.conj(h)
            worst = max(worst, float(np.max(np.abs(np.exp(1j * phase) - prod))))
        results.append(("cascade_phase_vs_freqz_product_<=1e-9", worst <= 1e-9,
                        f"{worst:.2e}"))

        with open(out / "xcorr_stats.csv") as f:
            rows = list(csv.DictReader(f))
        got = {(int(r["unit_i"]), int(r["unit_j"])): float(r["max_abs_xcorr"]) for r in rows}
        stack = np.stack([u.samples for u in units])
        n_fft = next_pow2(2 * stack.shape[1] - 1)
        spec = np.fft.rfft(stack, n_fft, axis=1)
        norms = np.sqrt(np.sum(stack * stack, axis=1))
        want = {}
        for i in range(len(units) - 1):
            cc = np.fft.irfft(spec[i] * np.conj(spec[i + 1:]), n_fft, axis=1)
            peaks = np.max(np.abs(cc), axis=1) / (norms[i] * norms[i + 1:])
            for j, m in zip(range(i + 1, len(units)), peaks):
                want[(i, j)] = float(m)
        same_pairs = set(got) == set(want)
        err = max(abs(got[k] - want[k]) for k in want) if same_pairs else float("inf")
        results.append(("xcorr_csv_matches_recomputation_<=1e-6",
                        same_pairs and err <= 1e-6, f"max err {err:.1e}"))
        return results


class Augment(Workload):
    """augment() on ~10 s of synthetic speech-like audio at 16 kHz:
    16 variants at T_ERD 2 ms (many tiny cascades, few long frames)."""

    name = "augment"
    FS = 16000.0
    SECONDS = 10.0
    N_VARIANTS = 16
    T_ERD_S = 0.002
    op_metrics = {"augment_audio_s_per_s": "s/s"}

    def prepare(self):
        self.program_seed = derived_seed(self.name, self.seed)
        self.x = speech_like(np.random.default_rng(derived_seed(self.name, self.seed, 1)),
                             self.FS, self.SECONDS)
        self.variants = None

    def warm_up(self, ops):
        ops.call("augment", augment, self.x[:8000], self.FS, n_variants=1,
                 seed=self.program_seed, t_erd_s=self.T_ERD_S)

    def run_pass(self, ops):
        t0 = time.perf_counter()
        result = ops.call("augment", augment, self.x, self.FS, n_variants=self.N_VARIANTS,
                          seed=self.program_seed, t_erd_s=self.T_ERD_S)
        elapsed = time.perf_counter() - t0
        if result is None:
            return None
        self.variants = result[0]
        audio_s = sum(len(v) for v in self.variants) / self.FS
        return {"augment_audio_s_per_s": audio_s / elapsed}

    def fingerprint(self):
        h = hashlib.sha256()
        for v in self.variants:
            h.update(np.ascontiguousarray(v).tobytes())
        return h.hexdigest()

    def check(self):
        x, fs = self.x, self.FS
        results = []
        ex = float(np.dot(x, x))
        energy_err = max(abs(float(np.dot(v, v)) / ex - 1.0) for v in self.variants)
        results.append(("variant_energy_within_1%", energy_err <= 0.01, f"{energy_err:.1e}"))

        band_dev = max(float(np.max(np.abs(third_octave_deviation_db(x, v, fs))))
                       for v in self.variants)
        results.append(("band_level_deviation_<=0.5dB", band_dev <= 0.5, f"{band_dev:.1e} dB"))

        snrs = [aligned_snr_db(x, v) for v in self.variants]
        results.append(("aligned_snr_<30dB", max(snrs) < 30.0,
                        f"{min(snrs):.1f}..{max(snrs):.1f} dB"))

        ident, _ = augment(x, fs, base_params=DesignParams(fs=fs, fd=fs / 2.0),
                           n_variants=2, seed=self.program_seed)
        results.append(("identity_design_bit_exact",
                        all(np.array_equal(v, x) for v in ident), ""))
        return results


def third_octave_deviation_db(x: np.ndarray, y: np.ndarray, fs: float) -> np.ndarray:
    """Per third-octave band (25 Hz to 0.4 fs) level of y relative to x."""
    n = next_pow2(max(len(x), len(y)))
    px = np.abs(np.fft.rfft(x, n)) ** 2
    py = np.abs(np.fft.rfft(y, n)) ** 2
    f = np.fft.rfftfreq(n, 1.0 / fs)
    centers = 1000.0 * 2.0 ** (np.arange(-40, 40) / 3.0)
    centers = centers[(centers >= 25.0) & (centers <= 0.4 * fs)]
    dev = []
    for c in centers:
        sel = (f >= c * 2.0 ** (-1.0 / 6.0)) & (f < c * 2.0 ** (1.0 / 6.0))
        if px[sel].sum() > 0.0:
            dev.append(10.0 * np.log10(py[sel].sum() / px[sel].sum()))
    return np.array(dev)


def speech_like(rng: np.random.Generator, fs: float, seconds: float) -> np.ndarray:
    """Syllable-like bursts: voiced glottal pulse trains through three
    formant resonators and unvoiced noise, with pauses and a -60 dB
    noise floor; peak-normalized to 0.5."""
    n = int(seconds * fs)
    x = np.zeros(n)
    pos = int(rng.uniform(0.05, 0.2) * fs)
    while pos < n:
        length = min(n - pos, int(rng.uniform(0.08, 0.35) * fs))
        if rng.random() < 0.75:
            f0 = rng.uniform(90.0, 220.0) * (1.0 + 0.15 * np.linspace(-1.0, 1.0, length)
                                             * rng.uniform(-1.0, 1.0))
            cycles = np.floor(np.cumsum(f0 / fs))
            src = np.diff(cycles, prepend=cycles[0]).astype(float)
            seg = np.zeros(length)
            for lo, hi, bw in ((300, 900, 80), (900, 2400, 110), (2400, 3500, 160)):
                r = np.exp(-np.pi * bw / fs)
                theta = 2.0 * np.pi * rng.uniform(lo, hi) / fs
                seg += lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], src)
        else:
            seg = lfilter([1.0, -0.9], [1.0], rng.normal(0.0, 0.3, length))
        x[pos:pos + length] += seg * np.hanning(length) * rng.uniform(0.3, 1.0)
        pos += length + int(rng.uniform(0.02, 0.2) * fs)
    x /= np.max(np.abs(x))
    x += rng.normal(0.0, 1e-3, n)
    return 0.5 * x / np.max(np.abs(x))


WORKLOADS = {w.name: w for w in (Measure, Augment)}

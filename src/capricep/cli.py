"""Command-line surface tying the modules together.

Subcommands: design, optimize, xcorr-stats, make-signal, simulate,
analyze, augment.  Exit codes: 0 success, 2 usage error (argparse),
1 data error.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augment import DEFAULT_T_ERD_S, augment
from .analyzer import decompose
from .design import (
    DEFAULT_ALPHA,
    DEFAULT_CMAG,
    DEFAULT_TRUNCATION,
    DesignParams,
    composite_unit,
    derive_unit_designs,
    design_to_json,
    generate_ensemble,
    generate_unit,
    raised_cosine_short_params,
)
from .errors import CapricepError, DesignError
from .metadata import SessionMetadata, unit_fingerprint
from .sequences import build_test_signal, default_n_o, default_n_repeats
from .shaping import coarse_search, optimize_terd, pairwise_max_xcorr
from .simulator import VirtualSystem, run
from .wavio import read_wav, write_wav

PEAK_TARGET = 0.5


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fs", type=float, default=44100.0, help="sample rate (Hz)")
    p.add_argument("--fd", type=float, default=40.0,
                   help="average center-frequency interval (Hz)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--terd-ms", type=float, default=None,
                   help="target rectangle duration (ms); default 1736/fd")
    p.add_argument("--out-dir", type=Path, default=Path("."),
                   help="output directory")


def _params(args) -> DesignParams:
    return DesignParams(
        fs=args.fs,
        fd=args.fd,
        alpha=getattr(args, "alpha", DEFAULT_ALPHA),
        beta=getattr(args, "beta", DEFAULT_ALPHA),
        cmag=getattr(args, "cmag", DEFAULT_CMAG),
        seed=args.seed,
        truncation_factor=getattr(args, "truncation", DEFAULT_TRUNCATION),
    )


def _terd(args) -> float:
    if args.terd_ms is not None:
        return args.terd_ms / 1000.0
    return _params(args).nominal_t_erd()


def cmd_design(args) -> int:
    params = _params(args)
    t_erd = _terd(args)
    if args.composite:
        unit = composite_unit(
            raised_cosine_short_params(args.fs, seed=args.seed ^ 0x5EED),
            params, t_erd)
    else:
        unit = generate_unit(params, t_erd)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(args.out_dir / "unit.wav", unit.samples, args.fs, "float32")
    (args.out_dir / "unit.json").write_text(
        design_to_json(unit, include_sections=args.sections))
    print(f"wrote unit.wav ({len(unit.samples)} samples) and unit.json")
    return 0


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DesignError(f"{flag} must be a comma list of numbers, got {text!r}") from None


def cmd_optimize(args) -> int:
    params = _params(args)
    steps = (args.grid_min, args.grid_max, args.grid_step)
    if not (np.isfinite(steps).all() and args.grid_step > 0.0):
        raise DesignError("--grid-min, --grid-max and --grid-step must be finite "
                          f"and --grid-step > 0, got {steps}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.coarse_cmags:
        cmags = _float_list(args.coarse_cmags, "--coarse-cmags")
        alphas = _float_list(args.coarse_alphas, "--coarse-alphas")
        rows = coarse_search(cmags, alphas, params, args.units)
        out = args.out_dir / "coarse_search.csv"
        with open(out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["cmag", "alpha", "best_t_erd", "cost"])
            for r in rows:
                w.writerow([r["cmag"], r["alpha"], r["best_t_erd"], r["cost"]])
        print(f"wrote {out}; best cell cmag={rows[0]['cmag']} alpha={rows[0]['alpha']}")
        return 0
    grid = list(np.arange(args.grid_min, args.grid_max + 1e-12, args.grid_step) / args.fd)
    best, distances = optimize_terd(params, grid, args.units)
    out = args.out_dir / "terd_search.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_erd_s", "wasserstein_s"])
        for g, d in zip(sorted(grid), distances):
            w.writerow([g, d])
    print(f"wrote {out}; best t_erd = {best:.6f} s ({best * args.fd:.3f} / fd)")
    return 0


def cmd_xcorr_stats(args) -> int:
    params = _params(args)
    units = generate_ensemble(params, _terd(args), args.count)
    maxima = pairwise_max_xcorr(units)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "xcorr_stats.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["unit_i", "unit_j", "max_abs_xcorr"])
        pairs = itertools.combinations(range(len(units)), 2)
        for (i, j), m in zip(pairs, maxima):
            w.writerow([i, j, f"{m:.6f}"])
    print(f"wrote {out}; median max|xcorr| = {np.median(maxima):.4f}")
    return 0


def cmd_make_signal(args) -> int:
    base = _params(args)
    t_erd = _terd(args)
    designs = derive_unit_designs(base)
    units = [generate_unit(d, t_erd) for d in designs]
    n_o = default_n_o(units[0]) if args.n_o is None else args.n_o
    n_repeats = default_n_repeats(args.cycles)
    signal = build_test_signal(units, n_o, n_repeats)
    scale = PEAK_TARGET / float(np.max(np.abs(signal)))
    meta = SessionMetadata(
        designs=designs, t_erd_s=t_erd, n_o=n_o, n_repeats=n_repeats,
        scale=scale, fs=args.fs, fingerprints=[unit_fingerprint(u) for u in units])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(args.out_dir / "test_signal.wav", signal * scale, args.fs, "float32")
    (args.out_dir / "test_signal.json").write_text(meta.to_json())
    print(f"wrote test_signal.wav ({len(signal)} samples) and test_signal.json")
    return 0


def cmd_simulate(args) -> int:
    signal, fs = read_wav(args.signal)
    system = VirtualSystem.from_json(Path(args.system).read_text())
    output, pre = run(system, signal, fs, pre_silence_s=args.pre_silence_s)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(args.out_dir / "response.wav", output, fs, "float32")
    write_wav(args.out_dir / "silence.wav", pre, fs, "float32")
    print(f"wrote response.wav ({len(output)} samples) and silence.wav")
    return 0


def cmd_analyze(args) -> int:
    recorded, fs = read_wav(args.recording)
    meta = SessionMetadata.from_json(Path(args.sidecar).read_text())
    if fs != meta.fs:
        raise CapricepError(
            f"sample-rate mismatch: recording {fs} Hz, sidecar {meta.fs} Hz")
    silence = None
    if args.silence:
        silence, fs_sil = read_wav(args.silence)
        if fs_sil != fs:
            raise CapricepError("sample-rate mismatch: silence vs recording")
    units = meta.regenerate_units()
    result = decompose(recorded, silence, units, meta.n_o, meta.n_repeats,
                       scale=meta.scale)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(args.out_dir / "lti_raw.wav", result.lti_raw, fs, "float32")
    write_wav(args.out_dir / "nonl_ti.wav", result.nonlinear_ti, fs, "float32")
    write_wav(args.out_dir / "rntv.wav", result.random_tv, fs, "float32")
    out = args.out_dir / "levels.csv"
    cols = ["freq_hz", "lti_l_db", "lti_s_db", "nonl_ti_db",
            "rntv_db", "pre_bg_db", "rntv_raw_db"]
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for i in range(len(result.levels_db["freq_hz"])):
            w.writerow([f"{result.levels_db[c][i]:.3f}" for c in cols])
    print(f"wrote lti_raw.wav, nonl_ti.wav, rntv.wav and {out} "
          f"(n_ini={result.n_ini}, cycles={result.omega_size})")
    return 0


def cmd_augment(args) -> int:
    x, fs = read_wav(args.input)
    variants, report = augment(
        x, fs, n_variants=args.n_variants, seed=args.seed, t_erd_s=args.terd_ms / 1000.0)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    peak = max(float(np.max(np.abs(v))) for v in variants)
    for i, v in enumerate(variants):
        write_wav(args.out_dir / f"variant_{i:04d}.wav",
                  v / max(1.0, peak), fs, "float32")
    out = args.out_dir / "augment_report.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant_id", "snr_db", "skewness", "spectral_delta_max_db"])
        for i in range(len(variants)):
            delta = float(np.max(np.abs(report.spectra_delta_db[i])))
            w.writerow([i, f"{report.snr_db[i]:.2f}",
                        f"{report.skewness[i + 1]:.4f}", f"{delta:.3f}"])
    print(f"wrote {len(variants)} variants and {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capricep",
        description="Cascaded all-pass test pulses: design, measurement, augmentation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate one unit pulse WAV + sidecar")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--beta", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--cmag", type=float, default=DEFAULT_CMAG)
    p.add_argument("--truncation", type=float, default=DEFAULT_TRUNCATION)
    p.add_argument("--composite", action="store_true",
                   help="prepend the short raised-cosine companion cascade")
    p.add_argument("--sections", action="store_true",
                   help="include the section list in the sidecar")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("optimize", help="grid search the target duration")
    _add_common(p)
    p.add_argument("--units", type=int, default=500, help="ensemble size")
    p.add_argument("--grid-min", type=float, default=1.0,
                   help="grid start in units of 1/fd")
    p.add_argument("--grid-max", type=float, default=2.5)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--coarse-cmags", type=str, default=None,
                   help="comma list of cmag values for the coarse search")
    p.add_argument("--coarse-alphas", type=str, default="8",
                   help="comma list of alpha values for the coarse search")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("xcorr-stats", help="pairwise cross-correlation statistics")
    _add_common(p)
    p.add_argument("--count", type=int, default=100, help="ensemble size")
    p.set_defaults(func=cmd_xcorr_stats)

    p = sub.add_parser("make-signal", help="build the three-sequence test WAV")
    _add_common(p)
    p.add_argument("--n-o", type=int, default=None,
                   help="repetition shift in samples (default: unit length)")
    p.add_argument("--cycles", type=int, default=3,
                   help="analysis 8-cycles (warm-up/cool-down added)")
    p.set_defaults(func=cmd_make_signal)

    p = sub.add_parser("simulate", help="run a WAV through a virtual system")
    p.add_argument("--signal", type=Path, required=True)
    p.add_argument("--system", type=Path, required=True,
                   help="JSON description of the virtual system")
    p.add_argument("--pre-silence-s", type=float, default=1.0)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="decompose a recording into channels")
    p.add_argument("--recording", type=Path, required=True)
    p.add_argument("--silence", type=Path, default=None)
    p.add_argument("--sidecar", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("augment", help="all-pass filter-bank augmentation")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--n-variants", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--terd-ms", type=float, default=DEFAULT_T_ERD_S * 1000.0,
                   help="target rectangle duration of the variant units (ms)")
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_augment)
    return parser


# One parser per process: building it takes about 2 ms, and a process
# may run many subcommands.  It is built on the first call, not on import.
_parser = functools.cache(build_parser)


# glibc's mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc keep up to 64 MB of freed heap rather than return it to
    the kernel, and serve arrays up to 16 MB from that heap.

    A subcommand frees its working set when it returns (about 25 MB for
    analyze of a 23 s recording at 16 kHz).  By default glibc trims the
    heap once a few MB at its top are free, and nothing long-lived holds
    the top (numpy.fft keeps no plans between calls), so every large
    temporary and every later subcommand in the same process page-faults
    its memory in again.  Does nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapricepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

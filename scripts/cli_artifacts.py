"""Write every CLI artifact of a capricep source tree on fixed inputs.

Usage: python3 scripts/cli_artifacts.py SRC OUT

SRC is the directory that holds the ``capricep`` package (a checkout's
``src``); OUT is created and filled.  All seven subcommands run through
``capricep.cli.main`` in this process on seeds 7 and 12345 at 8 kHz /
fd 250 Hz and 16 kHz / fd 100 Hz, and ``augment`` also on a 1 s pure
tone (``tone.wav``).  Each run leaves its files in its own
directory, and ``runs.txt`` records its arguments, exit code, stdout and
stderr with the OUT and SRC paths masked, so two trees compare with
``diff -r OUT1 OUT2``.  ``runs.txt`` also records ``capricep --help`` and
each subcommand's ``--help``, formatted 80 columns wide.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
import traceback
import wave
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SUBCOMMANDS = ("design", "optimize", "xcorr-stats", "make-signal", "simulate", "analyze",
               "augment")
SEEDS = (7, 12345)
RATES = ((8000, 250), (16000, 100))
SYSTEM = {"lti_ir": [1.0, 0.0, -0.3, 0.1], "nl_coeffs": [1.0, 0.0, 0.05],
          "noise_level_db": -60, "drift": [2.0, 0.1], "latency_samples": 123}


def _write_tone(path: Path, fs: int) -> None:
    """One second of a half-scale 440 Hz sine as 16-bit PCM."""
    samples = array("h", (round(16384 * math.sin(2 * math.pi * 440 * i / fs))
                          for i in range(fs)))
    if sys.byteorder == "big":
        samples.byteswap()
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(fs)
        w.writeframes(samples.tobytes())


def _cases(out: Path, seed: int, fs: int, fd: int):
    """(name, argv) in run order; later runs read earlier runs' files."""
    common = ["--fs", str(fs), "--fd", str(fd), "--seed", str(seed)]
    cases = [
        ("help", ["--help"]),
        *((f"help_{c}", [c, "--help"]) for c in SUBCOMMANDS),
        ("design", ["design", *common]),
        ("design_composite", ["design", *common, "--composite", "--sections"]),
        # the short companion cascade fits only at higher rates
        ("design_composite_44k", ["design", "--fs", "44100", "--fd", "250",
                                  "--seed", str(seed), "--composite", "--sections"]),
        ("design_options", ["design", *common, "--terd-ms", "20", "--alpha", "4",
                            "--cmag", "1.5", "--truncation", "5"]),
        ("optimize", ["optimize", *common, "--units", "4", "--grid-min", "1.6",
                      "--grid-max", "2.0", "--grid-step", "0.2"]),
        ("optimize_coarse", ["optimize", *common, "--units", "4",
                             "--coarse-cmags", "1.0,1.19", "--coarse-alphas", "4,8"]),
        ("xcorr_stats", ["xcorr-stats", *common, "--count", "6"]),
    ]
    # the 6-cycle session gives the analyzer more than two usable cycles
    for session, cycles, extra in (("session", 2, []), ("session_n_o_300", 2, ["--n-o", "300"]),
                                   ("session_cycles_6", 6, [])):
        d = out / session
        cases += [
            (session, ["make-signal", *common, "--cycles", str(cycles), *extra]),
            (f"{session}/simulate", ["simulate", "--signal", d / "test_signal.wav",
                                     "--system", out / "system.json",
                                     "--pre-silence-s", "0.5"]),
            (f"{session}/analyze", ["analyze", "--recording", d / "simulate/response.wav",
                                    "--silence", d / "simulate/silence.wav",
                                    "--sidecar", d / "test_signal.json"]),
            (f"{session}/analyze_no_silence", [
                "analyze", "--recording", d / "simulate/response.wav",
                "--sidecar", d / "test_signal.json"]),
        ]
    # a 1 s silence at 16 kHz spans two overlap-save frames of the
    # background compression
    d = out / "session_cycles_6"
    cases += [
        ("session_cycles_6/simulate_silence_1s", [
            "simulate", "--signal", d / "test_signal.wav", "--system", out / "system.json",
            "--pre-silence-s", "1.0"]),
        ("session_cycles_6/analyze_silence_1s", [
            "analyze", "--recording", d / "simulate_silence_1s/response.wav",
            "--silence", d / "simulate_silence_1s/silence.wav",
            "--sidecar", d / "test_signal.json"]),
    ]
    cases += [
        ("augment_response", ["augment", "--input", out / "session/simulate/response.wav",
                              "--n-variants", "3", "--seed", str(seed)]),
        ("augment_unit", ["augment", "--input", out / "design/unit.wav",
                          "--n-variants", "2", "--seed", str(seed), "--terd-ms", "1"]),
        # a periodic input: no lag window can be proven to hold the SNR
        # alignment peak, so every variant's lag is searched at every lag
        ("augment_tone", ["augment", "--input", out / "tone.wav",
                          "--n-variants", "3", "--seed", str(seed)]),
    ]
    return cases


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, root = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    sys.path.insert(0, str(src))
    import capricep.cli

    if not Path(capricep.cli.__file__).resolve().is_relative_to(src):
        print(f"capricep was imported from {capricep.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    def mask(text: str) -> str:
        return text.replace(str(root), "OUT").replace(str(src), "SRC")

    for seed in SEEDS:
        for fs, fd in RATES:
            out = root / f"seed{seed}_fs{fs}_fd{fd}"
            out.mkdir(parents=True)
            (out / "system.json").write_text(json.dumps(SYSTEM))
            _write_tone(out / "tone.wav", fs)
            with open(out / "runs.txt", "w") as log:
                for name, args in _cases(out, seed, fs, fd):
                    args = [str(a) for a in args] + ["--out-dir", str(out / name)]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        try:
                            code = capricep.cli.main(args)
                        except SystemExit as exc:
                            code = exc.code
                        except Exception:  # recorded, then the next run goes on
                            code = "uncaught exception"
                            stderr.write(traceback.format_exc())
                    log.write(f"== {name}\nargv: {mask(' '.join(args))}\nexit: {code}\n"
                              f"stdout:\n{mask(stdout.getvalue())}"
                              f"stderr:\n{mask(stderr.getvalue())}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

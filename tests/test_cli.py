"""Command-line interface: exit codes, outputs, reproducibility."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capricep
from capricep.cli import main
from capricep.wavio import read_wav, write_wav

FAST = ["--fs", "8000", "--fd", "250", "--seed", "7"]


def test_design_writes_wav_and_sidecar(tmp_path):
    assert main(["design", *FAST, "--out-dir", str(tmp_path)]) == 0
    samples, fs = read_wav(tmp_path / "unit.wav")
    assert fs == 8000.0
    assert len(samples) == round(4 * 1.736 / 250 * 8000)
    doc = json.loads((tmp_path / "unit.json").read_text())
    assert doc["design"]["seed"] == 7


def test_design_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["design", *FAST, "--out-dir", str(a)]) == 0
    assert main(["design", *FAST, "--out-dir", str(b)]) == 0
    assert (a / "unit.wav").read_bytes() == (b / "unit.wav").read_bytes()
    assert (a / "unit.json").read_bytes() == (b / "unit.json").read_bytes()


def test_optimize_writes_csv(tmp_path):
    rc = main(["optimize", *FAST, "--units", "4",
               "--grid-min", "1.6", "--grid-max", "2.0", "--grid-step", "0.4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "terd_search.csv").read_text().strip().splitlines()
    assert lines[0] == "t_erd_s,wasserstein_s"
    assert len(lines) == 3


def test_xcorr_stats_csv(tmp_path):
    rc = main(["xcorr-stats", *FAST, "--count", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "xcorr_stats.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6  # header + C(4,2) pairs


def test_xcorr_stats_needs_two_units(tmp_path, capsys):
    rc = main(["xcorr-stats", *FAST, "--count", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "xcorr_stats.csv").exists()


def _simulated_session(tmp_path):
    assert main(["make-signal", *FAST, "--cycles", "2",
                 "--out-dir", str(tmp_path)]) == 0
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps({"lti_ir": [1.0, 0.0, 0.25], "noise_level_db": -80.0}))
    assert main(["simulate", "--signal", str(tmp_path / "test_signal.wav"),
                 "--system", str(sys_path), "--pre-silence-s", "0.5",
                 "--out-dir", str(tmp_path)]) == 0


def _analyze(tmp_path, recording="response.wav", sidecar="test_signal.json"):
    return main(["analyze", "--recording", str(tmp_path / recording),
                 "--silence", str(tmp_path / "silence.wav"),
                 "--sidecar", str(tmp_path / sidecar),
                 "--out-dir", str(tmp_path / "out")])


def test_analyze_rejects_non_finite_recording(tmp_path, capsys):
    _simulated_session(tmp_path)
    x, fs = read_wav(tmp_path / "response.wav")
    x[len(x) // 2] = np.nan
    write_wav(tmp_path / "nan.wav", x, fs, "float32")
    capsys.readouterr()
    assert _analyze(tmp_path, recording="nan.wav") == 1
    assert "NaN or inf" in capsys.readouterr().err
    assert not (tmp_path / "out" / "levels.csv").exists()


@pytest.mark.parametrize("field,value", [("n_o", None), ("scale", 0.0)])
def test_analyze_rejects_malformed_sidecar(tmp_path, capsys, field, value):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="bad.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out" / "levels.csv").exists()


@pytest.mark.parametrize("field,value,message", [
    ("n_o", 0, "n_o must be at least 1"),
    ("n_o", 1_000_000_000, "recording too short"),
    ("n_repeats", 7, "8-cycle"),
    ("designs", 3, "exactly 4 units"),
])
def test_analyze_rejects_bad_session_layout(tmp_path, capsys, field, value, message):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    doc[field] = doc["designs"][:value] if field == "designs" else value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="bad.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out" / "levels.csv").exists()


def test_make_signal_rejects_zero_n_o(tmp_path, capsys):
    rc = main(["make-signal", *FAST, "--n-o", "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "n_o must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "test_signal.wav").exists()


def test_full_pipeline_make_simulate_analyze(tmp_path):
    assert main(["make-signal", *FAST, "--cycles", "2",
                 "--out-dir", str(tmp_path)]) == 0
    signal, _ = read_wav(tmp_path / "test_signal.wav")
    assert np.max(np.abs(signal)) == pytest.approx(0.5, abs=1e-6)

    system = {"lti_ir": [1.0, 0.0, 0.25], "noise_level_db": -80.0}
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system))
    assert main(["simulate", "--signal", str(tmp_path / "test_signal.wav"),
                 "--system", str(sys_path), "--pre-silence-s", "0.5",
                 "--out-dir", str(tmp_path)]) == 0

    assert main(["analyze", "--recording", str(tmp_path / "response.wav"),
                 "--silence", str(tmp_path / "silence.wav"),
                 "--sidecar", str(tmp_path / "test_signal.json"),
                 "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / "levels.csv").read_text().splitlines()[0]
    assert header.startswith("freq_hz,lti_l_db")
    for name in ("lti_raw.wav", "nonl_ti.wav", "rntv.wav"):
        assert (tmp_path / name).exists()


def test_analyze_rejects_sample_rate_mismatch(tmp_path, capsys):
    assert main(["make-signal", *FAST, "--cycles", "2",
                 "--out-dir", str(tmp_path)]) == 0
    wrong, _ = read_wav(tmp_path / "test_signal.wav")
    write_wav(tmp_path / "wrong.wav", wrong, 44100.0, "float32")
    rc = main(["analyze", "--recording", str(tmp_path / "wrong.wav"),
               "--sidecar", str(tmp_path / "test_signal.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "sample-rate mismatch" in capsys.readouterr().err


def test_augment_outputs(tmp_path):
    assert main(["design", *FAST, "--out-dir", str(tmp_path)]) == 0
    rc = main(["augment", "--input", str(tmp_path / "unit.wav"),
               "--n-variants", "2", "--seed", "3", "--terd-ms", "1.0",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "variant_0000.wav").exists()
    assert (tmp_path / "variant_0001.wav").exists()
    lines = (tmp_path / "augment_report.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def _short_input(tmp_path):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    write_wav(tmp_path / "input.wav", x, 8000.0, "float32")
    return tmp_path / "input.wav"


def test_augment_rejects_zero_sample_rate(tmp_path, capsys):
    raw = bytearray(_short_input(tmp_path).read_bytes())
    raw[24:28] = bytes(4)  # the fmt chunk's sample-rate field
    (tmp_path / "rate0.wav").write_bytes(bytes(raw))
    rc = main(["augment", "--input", str(tmp_path / "rate0.wav"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sample rate" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terd_ms", ["0", "-1"])
def test_augment_rejects_non_positive_terd(tmp_path, capsys, terd_ms):
    rc = main(["augment", "--input", str(_short_input(tmp_path)),
               "--terd-ms", terd_ms, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_erd_s" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad,message", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("silence", "silent")])
def test_augment_rejects_non_finite_or_silent_input(tmp_path, capsys, bad, message):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    if bad == "silence":
        x[:] = 0.0
    else:
        x[400] = float(bad)
    write_wav(tmp_path / "bad.wav", x, 8000.0, "float32")
    rc = main(["augment", "--input", str(tmp_path / "bad.wav"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["design", *FAST, "--truncation", "inf"], "must be finite"),
    (["design", *FAST, "--alpha", "nan"], "must be finite"),
    (["design", *FAST, "--cmag", "inf"], "must be finite"),
    (["design", *FAST, "--terd-ms", "nan"], "t_erd_s"),
    (["design", *FAST, "--terd-ms", "inf"], "t_erd_s"),
    (["design", "--fs", "44100", "--fd", "250", "--composite", "--terd-ms", "nan"],
     "t_erd_s"),
    (["optimize", *FAST, "--units", "2", "--grid-step", "0"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-step", "-0.05"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-min", "nan"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-max", "inf"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--coarse-cmags", "1.0,abc"], "--coarse-cmags"),
    (["optimize", *FAST, "--units", "2", "--coarse-cmags", "1.0",
      "--coarse-alphas", "8,x"], "--coarse-alphas"),
])
def test_non_finite_or_malformed_design_inputs_exit_1(tmp_path, capsys, argv, message):
    rc = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not list((tmp_path / "out").glob("*.*"))


@pytest.mark.parametrize("system_text,message", [
    ('{"noise_level_db": -60}', "lti_ir"),
    ('{"lti_ir": [1.0], "noise_level_db": "loud"}', "malformed"),
    ('{"lti_ir": [1.0], ', "not valid JSON"),
    ('{"lti_ir": [1.0], "nl_coeffs": [NaN]}', "nl_coeffs"),
    ('{"lti_ir": [1.0], "noise_level_db": Infinity}', "noise_level_db"),
    ('{"lti_ir": [1.0], "drift": [NaN, 0.1]}', "drift"),
    ('{"lti_ir": [1.0], "noise_level_db": -60, "noise_seed": -1}', "noise_seed"),
    ('{"lti_ir": [1.0], "latency_samples": 1.7}', "latency_samples"),
    ('{"lti_ir": [1.0], "latency_samples": true}', "latency_samples"),
    ('{"lti_ir": [1.0], "latency_samples": "5"}', "latency_samples"),
    ('{"lti_ir": [1.0], "latency_samples": 1000000000000}', "latency_samples"),
    ('{"lti_ir": [1.0], "noise_level_db": -60, "noise_seed": 0.5}', "noise_seed"),
    ('{"lti_ir": [1.0], "noise_level_db": -60, "noise_seed": false}', "noise_seed"),
])
def test_simulate_rejects_malformed_or_non_finite_system(tmp_path, capsys, system_text,
                                                         message):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    write_wav(tmp_path / "signal.wav", x, 8000.0, "float32")
    (tmp_path / "system.json").write_text(system_text)
    rc = main(["simulate", "--signal", str(tmp_path / "signal.wav"),
               "--system", str(tmp_path / "system.json"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pre_silence_s", ["-1", "inf", "nan", "1e12"])
def test_simulate_rejects_bad_pre_silence(tmp_path, capsys, pre_silence_s):
    write_wav(tmp_path / "signal.wav", np.ones(100) * 0.1, 8000.0, "float32")
    (tmp_path / "system.json").write_text('{"lti_ir": [1.0]}')
    rc = main(["simulate", "--signal", str(tmp_path / "signal.wav"),
               "--system", str(tmp_path / "system.json"),
               "--pre-silence-s", pre_silence_s, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pre_silence_s" in err
    assert not (tmp_path / "out").exists()


def test_design_rejects_an_oversized_unit(tmp_path, capsys):
    # fd 0.01 Hz at the default 44.1 kHz: a 173.6 s T_ERD, refused before
    # any synthesis array is allocated.
    rc = main(["design", "--fd", "0.01", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "synthesis grid" in err
    assert not (tmp_path / "out").exists()


def test_missing_file_is_data_error(tmp_path):
    rc = main(["simulate", "--signal", str(tmp_path / "absent.wav"),
               "--system", str(tmp_path / "absent.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_importing_the_cli_loads_neither_scipy_signal_nor_scipy_stats():
    """Either one costs about a second of start-up, and no subcommand needs it."""
    code = ("import sys, capricep.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
    src = str(Path(capricep.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_augment_module_still_resolves_fftconvolve():
    from scipy.signal import fftconvolve
    # The package re-exports the augment() function under the submodule's name.
    augment_module = importlib.import_module("capricep.augment")
    assert augment_module.fftconvolve is fftconvolve
    with pytest.raises(AttributeError):
        augment_module.no_such_name

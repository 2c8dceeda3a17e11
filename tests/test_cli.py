"""Command-line interface: exit codes, outputs, reproducibility."""
import csv
import importlib
import importlib.util
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

import capricep
from capricep import cli
from capricep.analyzer import decompose
from capricep.cli import main
from capricep.design import DesignParams, derive_unit_designs, generate_unit
from capricep.sequences import build_test_signal, default_n_repeats
from capricep.wavio import read_wav, write_wav

FAST = ["--fs", "8000", "--fd", "250", "--seed", "7"]


def test_design_writes_wav_and_sidecar(tmp_path):
    assert main(["design", *FAST, "--out-dir", str(tmp_path)]) == 0
    samples, fs = read_wav(tmp_path / "unit.wav")
    assert fs == 8000.0
    assert len(samples) == round(4 * 1.736 / 250 * 8000)
    doc = json.loads((tmp_path / "unit.json").read_text())
    assert doc["design"]["seed"] == 7


def test_design_flags_left_out_take_the_design_params_defaults(tmp_path):
    assert main(["design", *FAST, "--out-dir", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a" / "unit.json").read_text())
    assert doc["design"] == DesignParams(fs=8000.0, fd=250.0, seed=7).to_dict()
    assert main(["design", *FAST, "--alpha", "4", "--beta", "5", "--cmag", "1.5",
                 "--truncation", "5", "--out-dir", str(tmp_path / "b")]) == 0
    doc = json.loads((tmp_path / "b" / "unit.json").read_text())
    assert doc["design"] == DesignParams(fs=8000.0, fd=250.0, alpha=4.0, beta=5.0, cmag=1.5,
                                         seed=7, truncation_factor=5.0).to_dict()


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
    write_wav(tmp_path / "nan.wav", x, fs)
    capsys.readouterr()
    assert _analyze(tmp_path, recording="nan.wav") == 1
    assert "NaN or inf" in capsys.readouterr().err
    assert not (tmp_path / "out" / "levels.csv").exists()


# "+0.9" adds a fraction to an integer field, which was once truncated
# away with exit code 0.
@pytest.mark.parametrize("field,value", [("n_o", None), ("scale", 0.0), ("n_o", "+0.9"),
                                         ("n_repeats", "+0.9"), ("seed", "+0.9")])
def test_analyze_rejects_malformed_sidecar(tmp_path, capsys, field, value):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    owner = doc["designs"][2] if field == "seed" else doc
    if value is None:
        del owner[field]
    elif value == "+0.9":
        owner[field] += 0.9
    else:
        owner[field] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="bad.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out" / "levels.csv").exists()


def test_analyze_accepts_whole_numbers_written_as_floats(tmp_path):
    _simulated_session(tmp_path)
    assert _analyze(tmp_path) == 0
    want = (tmp_path / "out" / "levels.csv").read_bytes()
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    doc["n_o"] = float(doc["n_o"])
    doc["n_repeats"] = float(doc["n_repeats"])
    for design in doc["designs"]:
        design["seed"] = float(design["seed"])
    (tmp_path / "floats.json").write_text(json.dumps(doc))
    (tmp_path / "out" / "levels.csv").unlink()
    assert _analyze(tmp_path, sidecar="floats.json") == 0
    assert (tmp_path / "out" / "levels.csv").read_bytes() == want


@pytest.mark.parametrize("field,value,message", [
    ("n_o", 0, "n_o must be at least 1"),
    ("n_o", 100_000, "recording too short"),
    ("n_o", 1_000_000_000, "test signal of"),
    ("n_repeats", 7, "8-cycle"),
    ("designs", 3, "exactly 4 units"),
    ("designs", 0, "designs have fs"),
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


def test_analyze_rejects_a_sidecar_whose_fs_differs_from_its_designs(tmp_path, capsys):
    """A recording rewritten at the sidecar's altered rate passes the
    recording-versus-sidecar check; the designs' own rate does not."""
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    doc["fs"] = 16000
    (tmp_path / "fs16k.json").write_text(json.dumps(doc))
    write_wav(tmp_path / "response16k.wav", read_wav(tmp_path / "response.wav")[0], 16000.0)
    capsys.readouterr()
    rc = main(["analyze", "--recording", str(tmp_path / "response16k.wav"),
               "--sidecar", str(tmp_path / "fs16k.json"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "designs have fs" in err[0]
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_a_sidecar_of_four_identical_designs(tmp_path, capsys):
    """Four copies of one unit cannot be separated into channels."""
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    doc["designs"] = [doc["designs"][0]] * 4
    (tmp_path / "same.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="same.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "equal samples" in err
    assert not (tmp_path / "out" / "levels.csv").exists()


def test_session_sidecar_fingerprints_its_units_and_passes_its_own_check(tmp_path):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    assert doc["schema_version"] == 2
    units = [generate_unit(DesignParams.from_dict(d), doc["t_erd_s"]) for d in doc["designs"]]
    for unit, fp in zip(units, doc["fingerprints"], strict=True):
        n = len(unit.samples)
        assert fp["samples"] == [unit.samples[i] for i in (0, n // 4, n // 2, 3 * n // 4)]
        assert fp["energy"] == unit.energy
    assert _analyze(tmp_path) == 0


# A relative change of 1e-6 is far above the 1e-9 bound; 1e-13 is the
# size of a rounding difference between builds and must pass.
@pytest.mark.parametrize("unit,key,factor,code", [
    (2, "samples", 1 + 1e-6, 1), (0, "energy", 1 - 1e-6, 1), (3, "samples", 1 + 1e-13, 0)])
def test_analyze_checks_regenerated_units_against_the_fingerprint(tmp_path, capsys, unit,
                                                                   key, factor, code):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    fp = doc["fingerprints"][unit]
    if key == "samples":
        fp["samples"][2] *= factor  # the center sample
    else:
        fp["energy"] *= factor
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="tampered.json") == code
    levels = tmp_path / "out" / "levels.csv"
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unit {unit}" in err and "fingerprint" in err
        assert not levels.exists()
    else:
        assert levels.exists()


def test_analyze_reads_a_schema_1_sidecar_without_the_check(tmp_path):
    _simulated_session(tmp_path)
    assert _analyze(tmp_path) == 0
    want = (tmp_path / "out" / "levels.csv").read_bytes()
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    v1 = {key: doc[key] for key in ("tool_version", "fs", "t_erd_s", "n_o", "n_repeats",
                                    "scale", "designs")}
    v1["schema_version"] = 1
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    (tmp_path / "out" / "levels.csv").unlink()
    assert _analyze(tmp_path, sidecar="v1.json") == 0
    assert (tmp_path / "out" / "levels.csv").read_bytes() == want


@pytest.mark.parametrize("change,message", [
    ({"schema_version": 3}, "schema version 3"),
    ({"schema_version": None}, "schema version None"),
    ({"fingerprints": None}, "malformed sidecar"),
    ({"fingerprints": [{"energy": 1.0, "samples": [0.0, 0.1, 0.5]}] * 4}, "4 finite samples"),
    ({"fingerprints": [{"energy": float("nan"), "samples": [0.0] * 4}] * 4}, "finite energy"),
    ({"fingerprints": [{"energy": 1.0, "samples": [0.0] * 4}] * 3}, "3 fingerprints"),
])
def test_analyze_rejects_an_unknown_schema_or_a_malformed_fingerprint(tmp_path, capsys,
                                                                      change, message):
    _simulated_session(tmp_path)
    doc = json.loads((tmp_path / "test_signal.json").read_text())
    doc.update(change)
    if change == {"fingerprints": None}:
        del doc["fingerprints"]  # a schema 2 sidecar cannot skip the check
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _analyze(tmp_path, sidecar="bad.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out" / "levels.csv").exists()


def _run_main(argv, capsys):
    """Exit code and output of one ``main`` call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


def test_main_builds_its_parser_once_and_answers_as_a_fresh_one(tmp_path, capsys,
                                                                monkeypatch):
    def calls(out):
        return [["design", *FAST, "--out-dir", str(out)],
                ["design", *FAST, "--no-such-flag"],
                ["make-signal", *FAST, "--cycles", "1", "--out-dir", str(out)],
                ["--version"]]

    reused = [_run_main(argv, capsys) for argv in calls(tmp_path / "a")]
    assert capricep.cli._parser() is capricep.cli._parser()
    monkeypatch.setattr(capricep.cli, "_parser", capricep.cli.build_parser)
    fresh = [_run_main(argv, capsys) for argv in calls(tmp_path / "b")]
    assert [code for code, _ in reused] == [0, 2, 0, 0]
    assert reused == fresh
    assert "unrecognized arguments: --no-such-flag" in reused[1][1].err
    assert reused[3][1].out.strip() == capricep.__version__
    for name in ("unit.wav", "unit.json", "test_signal.wav", "test_signal.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_main_runs_on_a_c_library_without_mallopt(tmp_path, monkeypatch):
    """Where the C library has no mallopt the heap settings are skipped."""
    monkeypatch.setattr(capricep.cli.ctypes, "CDLL", lambda name: object())
    assert capricep.cli._keep_freed_heap() is None
    assert main(["design", *FAST, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "unit.wav").exists()


def test_the_module_run_as_a_script_exits_with_mains_code(monkeypatch, capsys):
    # runpy warns when the module it runs as __main__ is already imported.
    monkeypatch.delitem(sys.modules, "capricep.cli")
    monkeypatch.setattr(sys, "argv", ["capricep", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("capricep.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == capricep.__version__


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


def _write_pcm16(path, x, fs):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(fs))
        w.writeframes(np.clip(np.round(x * 32768), -32768, 32767).astype("<i2").tobytes())


def test_analyze_skips_a_clipped_silence_when_the_playback_gain_exceeds_one(tmp_path):
    """A recorder clips at 1.0 whatever the playback gain, so a PCM-16
    silence with 4.5% of its samples at full scale gives no background
    (pre_bg_db at the -300 dB floor) also at this session's scale of
    1.42.  The same silence at half the level is used."""
    assert main(["make-signal", "--fs", "16000", "--fd", "100", "--seed", "7",
                 "--cycles", "2", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "test_signal.json").read_text())["scale"] > 1.4
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps({"lti_ir": [1.0, 0.0, 0.25], "noise_level_db": -80.0}))
    assert main(["simulate", "--signal", str(tmp_path / "test_signal.wav"),
                 "--system", str(sys_path), "--pre-silence-s", "0.5",
                 "--out-dir", str(tmp_path)]) == 0
    clipped = np.clip(np.random.default_rng(3).standard_normal(8000) * 0.5, -1.0, 1.0)
    assert 0.04 < np.mean(np.abs(clipped) == 1.0) < 0.05
    pre_bg_db = {}
    for name, silence in (("clipped", clipped), ("quiet", clipped / 2)):
        _write_pcm16(tmp_path / f"{name}.wav", silence, 16000)
        assert main(["analyze", "--recording", str(tmp_path / "response.wav"),
                     "--silence", str(tmp_path / f"{name}.wav"),
                     "--sidecar", str(tmp_path / "test_signal.json"),
                     "--out-dir", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "levels.csv", newline="") as f:
            pre_bg_db[name] = [float(row["pre_bg_db"]) for row in csv.DictReader(f)]
    assert set(pre_bg_db["clipped"]) == {-300.0}
    assert max(pre_bg_db["quiet"]) > -300.0


def test_analyze_rejects_sample_rate_mismatch(tmp_path, capsys):
    assert main(["make-signal", *FAST, "--cycles", "2",
                 "--out-dir", str(tmp_path)]) == 0
    wrong, _ = read_wav(tmp_path / "test_signal.wav")
    write_wav(tmp_path / "wrong.wav", wrong, 44100.0)
    capsys.readouterr()
    bad_rate, good_rate = str(tmp_path / "wrong.wav"), str(tmp_path / "test_signal.wav")
    for files, which in (([bad_rate], "recording"),
                         ([good_rate, "--silence", bad_rate], "silence")):
        rc = main(["analyze", "--recording", *files,
                   "--sidecar", str(tmp_path / "test_signal.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert f"sample-rate mismatch: {which}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2, 3]"])
def test_analyze_rejects_a_sidecar_that_is_not_a_json_object(tmp_path, capsys, text):
    write_wav(tmp_path / "response.wav", np.zeros(800), 8000.0)
    (tmp_path / "bad.json").write_text(text)
    assert _analyze(tmp_path, sidecar="bad.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed sidecar" in err
    assert not (tmp_path / "out").exists()


def test_optimize_coarse_search_writes_every_cell_sorted_by_cost(tmp_path):
    assert main(["optimize", *FAST, "--units", "2", "--coarse-cmags", "1.0,1.19",
                 "--coarse-alphas", "8", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "coarse_search.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["cmag", "alpha", "best_t_erd", "cost"]
    assert sorted((float(r[0]), float(r[1])) for r in rows) == [(1.0, 8.0), (1.19, 8.0)]
    costs = [float(r[3]) for r in rows]
    assert all(np.isfinite(costs)) and costs == sorted(costs)


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
    write_wav(tmp_path / "input.wav", x, 8000.0)
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
    write_wav(tmp_path / "bad.wav", x, 8000.0)
    rc = main(["augment", "--input", str(tmp_path / "bad.wav"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,value,message", [
    ("--seed", "-1", "seed"),
    ("--terd-ms", "1e308", "synthesis grid"),
])
def test_augment_rejects_a_negative_seed_or_a_huge_t_erd(tmp_path, capsys, option, value,
                                                        message):
    x = np.random.default_rng(0).standard_normal(800) * 0.1
    write_wav(tmp_path / "in.wav", x, 8000.0)
    rc = main(["augment", "--input", str(tmp_path / "in.wav"), option, value,
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
    (["design", *FAST, "--seed", "-1"], "seed"),
    (["design", *FAST, "--composite", "--seed", "-1"], "seed"),
    (["make-signal", *FAST, "--seed", "-1"], "seed"),
    (["design", *FAST, "--alpha", "1e-300"], "alpha or beta too small"),
    (["design", *FAST, "--cmag", "1e-9"], "too narrow"),
    (["design", "--fs", "44100", "--fd", "250", "--composite", "--terd-ms", "nan"],
     "t_erd_s"),
    (["optimize", *FAST, "--units", "2", "--grid-step", "0"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-step", "-0.05"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-min", "nan"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--grid-max", "inf"], "--grid-step"),
    (["optimize", *FAST, "--units", "2", "--coarse-cmags", "1.0,abc"], "--coarse-cmags"),
    (["optimize", *FAST, "--units", "2", "--coarse-cmags", "1.0",
      "--coarse-alphas", "8,x"], "--coarse-alphas"),
    (["design", *FAST, "--terd-ms", "0.0001"], "shorter than 2 samples"),
    (["design", *FAST, "--truncation", "0.5"], "truncation loss"),
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
    write_wav(tmp_path / "signal.wav", x, 8000.0)
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
    write_wav(tmp_path / "signal.wav", np.ones(100) * 0.1, 8000.0)
    (tmp_path / "system.json").write_text('{"lti_ir": [1.0]}')
    rc = main(["simulate", "--signal", str(tmp_path / "signal.wav"),
               "--system", str(tmp_path / "system.json"),
               "--pre-silence-s", pre_silence_s, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pre_silence_s" in err
    assert not (tmp_path / "out").exists()


# Without a cap, each of these asks numpy for more memory than exists,
# and its _ArrayMemoryError escapes as a traceback.
@pytest.mark.parametrize("argv,message", [
    (["optimize", *FAST, "--units", "4", "--grid-step", "1e-13"], "T_ERD grid"),
    (["make-signal", *FAST, "--cycles", "1000000000000"], "test signal"),
    (["make-signal", *FAST, "--n-o", "1000000000000000"], "test signal"),
])
def test_huge_numeric_flags_are_refused_before_allocating(tmp_path, capsys, argv, message):
    tracemalloc.start()
    try:
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert peak < 8 << 20
    assert not list((tmp_path / "out").glob("*.*"))


def _env_with_src():
    src = str(Path(capricep.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


# Without the cap, each drew units until memory ran out, hours later.
@pytest.mark.parametrize("argv", [
    ["xcorr-stats", *FAST, "--count", "100000000"],
    ["optimize", *FAST, "--units", "100000000", "--grid-min", "1.6", "--grid-max", "1.6"],
])
def test_huge_ensembles_are_refused_before_a_unit_is_drawn(tmp_path, argv):
    code = ("import sys, tracemalloc; from capricep.cli import main; tracemalloc.start(); "
            "rc = main(sys.argv[1:]); print(rc, tracemalloc.get_traced_memory()[1])")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    rc, peak = map(int, proc.stdout.split())
    assert rc == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "ensemble" in err[0]
    assert peak < 8 << 20
    assert not (tmp_path / "out").exists()


def test_ensembles_at_the_cap_are_accepted_and_one_more_unit_is_not(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setattr(cli, "MAX_ENSEMBLE_UNITS", 3)
    for flag, command in (("--count", "xcorr-stats"), ("--units", "optimize")):
        assert main([command, *FAST, flag, "3", "--out-dir", str(tmp_path)]) == 0
        assert main([command, *FAST, flag, "4", "--out-dir", str(tmp_path)]) == 1
        assert "an ensemble of 4 units is over 3" in capsys.readouterr().err


def test_make_signal_simulate_and_analyze_each_trace_under_2_75_signals(tmp_path):
    """At the benchmark's measure session (16 kHz, fd 100 Hz, 40 cycles:
    a test signal of 374,406 samples) each stage holds its input, its
    output and fixed-size chunks.  make-signal, simulate and analyze
    trace 2.02, 2.14 and 2.29 times the test signal's float64 bytes; on
    whole arrays they traced 4.02, 4.05 and 4.38 times."""
    rng = np.random.default_rng(1)
    fir = rng.normal(0.0, 1.0, 256) * np.exp(-np.arange(256) / 40.0) * 0.3
    fir[0] = 1.0
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"lti_ir": fir.tolist(), "nl_coeffs": [1.0, 0.0, 0.2],
                                  "noise_level_db": -50.0, "drift": [2.0, 0.1],
                                  "latency_samples": 123, "noise_seed": 9}))

    def stages(out, fs, fd, cycles):
        return [["make-signal", "--fs", fs, "--fd", fd, "--seed", "5", "--cycles", cycles,
                 "--out-dir", str(out)],
                ["simulate", "--signal", str(out / "test_signal.wav"), "--system", str(system),
                 "--out-dir", str(out / "sim")],
                ["analyze", "--recording", str(out / "sim" / "response.wav"),
                 "--silence", str(out / "sim" / "silence.wav"),
                 "--sidecar", str(out / "test_signal.json"), "--out-dir", str(out / "an")]]

    for argv in stages(tmp_path / "warm", "8000", "400", "1"):  # first-call allocations
        assert main(argv) == 0
    peaks = []
    for argv in stages(tmp_path / "measure", "16000", "100", "40"):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    signal, _ = read_wav(tmp_path / "measure" / "test_signal.wav")
    assert len(signal) == 374_406
    assert max(peaks) <= 2.75 * signal.nbytes, [p / signal.nbytes for p in peaks]


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


def test_importing_the_cli_loads_no_scipy_module():
    """scipy is a test-only dependency: every transform is numpy.fft, and
    scipy.fft alone would add about 0.3 s to every CLI call."""
    code = ("import sys, capricep.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_augment_module_still_resolves_fftconvolve():
    from scipy.signal import fftconvolve
    # The package re-exports the augment() function under the submodule's name.
    augment_module = importlib.import_module("capricep.augment")
    assert augment_module.fftconvolve is fftconvolve
    with pytest.raises(AttributeError):
        augment_module.no_such_name


def _load_perfbench(name):
    """perfbench/<name>.py imported by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_names_resolve_and_the_analyzer_spans_record():
    """The benchmark wraps functions at the names their callers look up,
    so moving or renaming one silently empties its layer."""
    _load_perfbench("workloads")  # its from-imports must resolve too
    spans = _load_perfbench("spans")
    for owner, attr, _, _ in spans.PATCHES:
        assert callable(getattr(owner, attr)), (owner, attr)

    units = [generate_unit(d) for d in
             derive_unit_designs(DesignParams(fs=8000.0, fd=250.0, seed=5))]
    n_o = len(units[0].samples)
    signal = build_test_signal(units, n_o, default_n_repeats(1))
    silence = np.random.default_rng(5).standard_normal(4 * n_o) * 1e-3
    with spans.installed(spans.Tracer()) as tracer:
        decompose(signal, silence, units, n_o, default_n_repeats(1))
    totals = tracer.totals()
    assert totals["analyzer.compress"]["calls"] == 1
    assert totals["bands.band_powers"]["calls"] == 4

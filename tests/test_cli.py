"""Command-line interface: exit codes, outputs, reproducibility."""
import json

import numpy as np
import pytest

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

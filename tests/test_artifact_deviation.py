"""scripts/artifact_deviation.py: numeric bounds and flagged differences."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from capricep.wavio import write_wav

_SPEC = importlib.util.spec_from_file_location(
    "artifact_deviation", Path(__file__).parents[1] / "scripts" / "artifact_deviation.py")
artifact_deviation = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_deviation)


def _tree(root: Path, gain: float, level: str, exit_code: int, tag: str = "a"):
    run = root / "seed7" / "design"
    run.mkdir(parents=True)
    write_wav(run / "unit.wav", gain * np.array([0.5, -0.25, 0.125, 0.0]), 8000.0)
    (run / "levels.csv").write_text(f"channel,band_hz,level_db\nLTI-L,100,{level}\n")
    (run / "unit.json").write_text(json.dumps({"scale": 2.0 * gain, "seed": 7, "tag": tag}))
    (root / "seed7" / "runs.txt").write_text(
        f"== design\nargv: design\nexit: {exit_code}\nstdout:\nok\nstderr:\n\n")


def test_numeric_only_deviations_are_bounded(tmp_path, capsys):
    _tree(tmp_path / "a", 1.0, "-20.0", 0)
    _tree(tmp_path / "b", 1.0 + 2**-20, "-20.000002", 0)
    assert artifact_deviation.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    wav, csv_, json_ = (next(line for line in out if name in line)
                        for name in ("unit.wav", "levels.csv", "unit.json"))
    assert wav.startswith("numeric") and float(wav.split()[-1]) == pytest.approx(2**-20, rel=1e-2)
    assert float(csv_.split()[-1]) == pytest.approx(1e-7, rel=1e-2)
    assert float(json_.split()[-1]) == pytest.approx(2**-20, rel=1e-2)
    assert out[-1].startswith("4 files: 1 identical, 3 numeric only")


def test_text_exit_code_and_missing_files_are_flagged(tmp_path, capsys):
    _tree(tmp_path / "a", 1.0, "-20.0", 0)
    _tree(tmp_path / "b", 1.0, "nan-ish", 1, tag="b")
    (tmp_path / "b" / "extra.txt").write_text("x")
    assert artifact_deviation.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    for flagged in ("seed7/design/levels.csv: -20.0 vs 'nan-ish'", "seed7/design/unit.json: 'a' vs 'b'",
                    "seed7/runs.txt: runs design", "extra.txt: only in"):
        assert f"DIFFERS  {flagged}" in out
    assert "4 differ" in out

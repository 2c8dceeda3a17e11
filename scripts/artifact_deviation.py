"""Bound the numeric deviation between two ``cli_artifacts.py`` trees.

Usage: python3 scripts/artifact_deviation.py OUT1 OUT2

OUT1 and OUT2 are trees written by ``scripts/cli_artifacts.py``.  Every
file of either tree is compared with its namesake in the other:

- a WAV file by its rate, its length and the largest absolute sample
  difference relative to the OUT1 peak (read with ``scipy.io.wavfile``,
  not with the reader under test);
- a CSV or JSON file field by field: numbers by their relative
  difference |a - b| / max(|a|, |b|), everything else (text, layout,
  keys) exactly;
- any other file, ``runs.txt`` included (argv, exit code, stdout and
  stderr of each run), byte for byte.

One line is printed per file that is not byte-identical: ``numeric``
when only numbers moved, with the bound, or ``DIFFERS`` with the
reason.  The last line sums up, and the exit code is 1 when any file
differs in more than its numbers.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile


class Differs(Exception):
    """A difference that is not a numeric deviation."""


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _wav_deviation(p1: Path, p2: Path) -> float:
    fs1, x1 = wavfile.read(p1)
    fs2, x2 = wavfile.read(p2)
    if fs1 != fs2 or x1.shape != x2.shape or x1.dtype != x2.dtype:
        raise Differs(f"rate/shape/dtype {fs1}/{x1.shape}/{x1.dtype} "
                      f"vs {fs2}/{x2.shape}/{x2.dtype}")
    if x1.size == 0:
        return 0.0
    x1, x2 = x1.astype(np.float64), x2.astype(np.float64)
    peak = float(np.max(np.abs(x1)))
    dev = float(np.max(np.abs(x1 - x2)))
    return dev / peak if peak > 0.0 else dev


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_deviation(p1: Path, p2: Path) -> float:
    rows1 = list(csv.reader(io.StringIO(p1.read_text())))
    rows2 = list(csv.reader(io.StringIO(p2.read_text())))
    if [len(r) for r in rows1] != [len(r) for r in rows2]:
        raise Differs("row or column count")
    return max([_value_deviation(_cell(a), _cell(b), f"row {i}")
                for i, (r1, r2) in enumerate(zip(rows1, rows2))
                for a, b in zip(r1, r2)], default=0.0)


def _value_deviation(a, b, where: str) -> float:
    """Largest relative deviation of the numbers in two JSON/CSV values."""
    if type(a) in (int, float) and type(b) in (int, float):  # not bool
        return _rel(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Differs(f"keys at {where}")
        return max([_value_deviation(a[k], b[k], f"{where}.{k}") for k in a], default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Differs(f"length at {where}")
        return max([_value_deviation(u, v, f"{where}[{i}]")
                    for i, (u, v) in enumerate(zip(a, b))], default=0.0)
    if a != b:
        raise Differs(f"{a!r} vs {b!r} at {where}")
    return 0.0


def _runs_differing(p1: Path, p2: Path) -> str:
    """Names of the runs whose argv, exit code, stdout or stderr differ."""
    def runs(p):
        blocks = re.split(r"^== ", p.read_text(), flags=re.M)[1:]
        return {b.split("\n", 1)[0]: b for b in blocks}
    r1, r2 = runs(p1), runs(p2)
    names = sorted(n for n in r1.keys() | r2.keys() if r1.get(n) != r2.get(n))
    return "runs " + ", ".join(names)


def compare(root1: Path, root2: Path) -> tuple[list[str], int]:
    """(report lines, number of files that differ in more than numbers)."""
    files = sorted({p.relative_to(root1) for p in root1.rglob("*") if p.is_file()}
                   | {p.relative_to(root2) for p in root2.rglob("*") if p.is_file()})
    lines, bound, n_differ = [], {"wav": 0.0, "csv": 0.0, "json": 0.0}, 0
    for rel in files:
        p1, p2 = root1 / rel, root2 / rel
        kind = rel.suffix.lstrip(".")
        try:
            if not (p1.is_file() and p2.is_file()):
                raise Differs("only in " + (str(root1) if p1.is_file() else str(root2)))
            if p1.read_bytes() == p2.read_bytes():
                continue
            if kind == "wav":
                dev, what = _wav_deviation(p1, p2), "max|d|/peak"
            elif kind == "csv":
                dev, what = _csv_deviation(p1, p2), "max rel"
            elif kind == "json":
                dev = _value_deviation(json.loads(p1.read_text()),
                                       json.loads(p2.read_text()), "$")
                what = "max rel"
            elif rel.name == "runs.txt":
                raise Differs(_runs_differing(p1, p2))
            else:
                raise Differs("bytes")
        except (Differs, ValueError) as exc:  # ValueError: unreadable WAV or JSON
            n_differ += 1
            lines.append(f"DIFFERS  {rel}: {exc}")
            continue
        bound[kind] = max(bound[kind], dev)
        lines.append(f"numeric  {rel}: {what} {dev:.3g}")
    n_changed = len(lines)
    lines.append(
        f"{len(files)} files: {len(files) - n_changed} identical, "
        f"{n_changed - n_differ} numeric only (wav max|d|/peak {bound['wav']:.3g}, "
        f"csv max rel {bound['csv']:.3g}, json max rel {bound['json']:.3g}), "
        f"{n_differ} differ")
    return lines, n_differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, n_differ = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

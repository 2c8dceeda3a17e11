"""Print every executable line of src/capricep that no test runs.

Usage, from the repository root: python3 scripts/line_audit.py [PYTEST_ARGS...]

Runs pytest in this process under a stdlib line tracer and prints each
never-run line as ``capricep/FILE.py:LINE``.  Lines that run only in a
subprocess a test starts are not seen.  Exits with pytest's status.
"""
import sys
import threading
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "capricep"
ran: set[tuple[str, int]] = set()
ours: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name is None:  # e.g. a logging weakref callback at interpreter exit
        return None
    if name not in ours:
        ours[name] = Path(name).resolve().parent == PKG
    return _line if ours[name] else None


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


if __name__ == "__main__":
    sys.path.insert(0, str(PKG.parent))
    threading.settrace(_call)
    sys.settrace(_call)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    hit: dict[Path, set[int]] = {}
    for name, line in ran:
        hit.setdefault(Path(name).resolve(), set()).add(line)
    for path in sorted(PKG.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for line in sorted(set(_lines(code)) - hit.get(path, set())):
            print(f"capricep/{path.name}:{line}")
    sys.exit(status)

"""Periodic overlap-add test sequences weighted by the orthogonal B4 rows."""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .design import UnitCapricep
from .errors import SignalError

# Four mutually orthogonal +/-1 rows over an 8-slot cycle.  All pairs of
# distinct rows also have zero cyclic cross-correlation at every shift,
# which is what lets the orthogonalization cancel cross-channel pulses
# at every alignment.
B4 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, 1, 1, 1, -1, -1, -1, -1],
], dtype=int)

# Maximum simultaneously overlapping unit copies before pile-up is rejected.
_MAX_OVERLAP = 16


def default_n_o(unit: UnitCapricep) -> int:
    """Default repetition shift: one unit length (responses tile the period)."""
    return len(unit.samples)


def default_n_repeats(n_cycles: int = 3) -> int:
    """8 * (n_cycles + warm-up + cool-down) repetitions."""
    if n_cycles < 1:
        raise SignalError("need at least one analysis cycle")
    return 8 * (n_cycles + 2)


def _check_layout(length: int, n_o: int, n_repeats: int) -> None:
    if n_o < 1:
        raise SignalError("n_o must be at least 1")
    if n_repeats < 8:
        raise SignalError("n_repeats must cover at least one full 8-cycle")
    if (length + n_o - 1) // n_o > _MAX_OVERLAP:
        raise SignalError(
            f"n_o={n_o} lets more than {_MAX_OVERLAP} unit copies overlap"
        )


def check_session(units: list[UnitCapricep], n_o: int, n_repeats: int) -> None:
    """Reject a session the B4 layout cannot carry: it needs exactly four
    distinct units of one fs and length, n_o >= 1, at least one 8-cycle
    and at most _MAX_OVERLAP overlapping unit copies.  Two units with
    equal samples cannot be told apart in the recording."""
    if len(units) != 4:
        raise SignalError("need exactly 4 units")
    fs = units[0].fs
    length = len(units[0].samples)
    for u in units[1:]:
        if u.fs != fs or len(u.samples) != length:
            raise SignalError("units must share fs and length")
    for i, j in combinations(range(4), 2):
        if np.array_equal(units[i].samples, units[j].samples):
            raise SignalError(f"units {i} and {j} have equal samples")
    _check_layout(length, n_o, n_repeats)


def build_sequence(
    unit: UnitCapricep,
    weights_row: np.ndarray,
    n_o: int,
    n_repeats: int,
) -> np.ndarray:
    """Overlap-add of n_repeats shifted unit copies with cyclic +/-1 weights."""
    length = len(unit.samples)
    _check_layout(length, n_o, n_repeats)
    row = np.asarray(weights_row, dtype=float)
    if row.shape != (8,):
        raise SignalError("weights_row must have 8 entries")
    out = np.zeros(n_o * n_repeats + length - 1)
    for k in range(n_repeats):
        out[k * n_o:k * n_o + length] += row[k % 8] * unit.samples
    return out


def build_test_signal(
    units: list[UnitCapricep],
    n_o: int,
    n_repeats: int,
) -> np.ndarray:
    """Sum of the first three sequences.  The fourth B4 row is never
    played; the analyzer's fourth channel carries only noise and time
    variation."""
    check_session(units, n_o, n_repeats)
    seq = [build_sequence(u, B4[m], n_o, n_repeats) for m, u in enumerate(units[:3])]
    return seq[0] + seq[1] + seq[2]

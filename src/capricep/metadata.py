"""Session sidecar: everything needed to regenerate the four units and
interpret a recording, as diff-able JSON.

Schema 2 adds each unit's fingerprint: its energy and its samples at 0,
n/4, n/2 (the center) and 3n/4 of its n samples.  The units regenerated
for analysis must match it to FINGERPRINT_TOL, so a recording is never
decomposed with units other than the ones that were played.  Schema 1
sidecars carry no fingerprint and are read without the check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .design import DesignParams, UnitCapricep, generate_unit
from .errors import SignalError, whole_number
from .sequences import check_session

SCHEMA_VERSION = 2

# Largest deviation of a regenerated unit from its fingerprint: of the
# unit's peak for the samples, of its energy for the energy.  Builds
# that differ only in rounding move unit samples by about 1e-13.
FINGERPRINT_TOL = 1e-9


def unit_fingerprint(unit: UnitCapricep) -> dict:
    """The unit's energy and its samples at 0, n/4, n/2 and 3n/4."""
    s = unit.samples
    n = len(s)
    return {"energy": unit.energy,
            "samples": [float(s[i]) for i in (0, n // 4, n // 2, 3 * n // 4)]}


def _read_fingerprint(doc: dict) -> dict:
    fp = {"energy": float(doc["energy"]), "samples": [float(v) for v in doc["samples"]]}
    values = [fp["energy"], *fp["samples"]]
    if len(values) != 5 or not all(math.isfinite(v) for v in values):
        raise ValueError("fingerprint needs a finite energy and 4 finite samples")
    return fp


@dataclass(frozen=True)
class SessionMetadata:
    designs: list[DesignParams]  # one per unit, seeds already derived
    t_erd_s: float
    n_o: int
    n_repeats: int
    scale: float
    fingerprints: list[dict] | None  # one per unit; None for schema 1

    @property
    def fs(self) -> float:
        """The sample rate of the session: that of its designs."""
        return self.designs[0].fs

    def to_json(self) -> str:
        doc = {
            "schema_version": 1 if self.fingerprints is None else SCHEMA_VERSION,
            "tool_version": __version__,
            "fs": self.fs,
            "t_erd_s": self.t_erd_s,
            "n_o": self.n_o,
            "n_repeats": self.n_repeats,
            "scale": self.scale,
            "designs": [d.to_dict() for d in self.designs],
        }
        if self.fingerprints is not None:
            doc["fingerprints"] = self.fingerprints
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionMetadata":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SignalError(f"malformed sidecar: {exc}") from exc
        if not isinstance(doc, dict):
            raise SignalError("malformed sidecar: top level is not an object")
        version = doc.get("schema_version")
        if version not in (1, SCHEMA_VERSION):
            raise SignalError(f"unsupported sidecar schema version {version}")
        try:
            meta = cls(
                designs=[DesignParams.from_dict(d) for d in doc["designs"]],
                t_erd_s=float(doc["t_erd_s"]),
                n_o=whole_number(doc["n_o"], "n_o"),
                n_repeats=whole_number(doc["n_repeats"], "n_repeats"),
                scale=float(doc["scale"]),
                fingerprints=None if version == 1 else [
                    _read_fingerprint(f) for f in doc["fingerprints"]],
            )
            fs = float(doc["fs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SignalError(
                f"malformed sidecar: {type(exc).__name__}: {exc}") from exc
        if not meta.designs or any(d.fs != fs for d in meta.designs):
            raise SignalError(
                f"malformed sidecar: fs {fs} Hz, but its designs have fs "
                f"{[d.fs for d in meta.designs]}")
        if not (math.isfinite(meta.scale) and meta.scale > 0.0):
            raise SignalError(f"sidecar scale must be finite and > 0, got {meta.scale}")
        return meta

    def regenerate_units(self) -> list[UnitCapricep]:
        """The session's units, checked for the B4 layout and then
        against their fingerprints."""
        units = [generate_unit(d, self.t_erd_s) for d in self.designs]
        check_session(units, self.n_o, self.n_repeats)
        if self.fingerprints is None:
            return units
        if len(self.fingerprints) != len(units):
            raise SignalError(f"malformed sidecar: {len(self.fingerprints)} fingerprints "
                              f"for {len(units)} units")
        for i, (unit, want) in enumerate(zip(units, self.fingerprints)):
            got = unit_fingerprint(unit)
            peak = float(np.max(np.abs(unit.samples)))
            dev = max([abs(a - b) / peak for a, b in zip(got["samples"], want["samples"])]
                      + [abs(got["energy"] - want["energy"]) / got["energy"]])
            if not dev <= FINGERPRINT_TOL:
                raise SignalError(
                    f"unit {i} regenerated from the sidecar deviates from its "
                    f"fingerprint by {dev:.1e} (bound {FINGERPRINT_TOL:g}): the "
                    f"recording was not made with these units")
        return units

"""Session sidecar: everything needed to regenerate the four units and
interpret a recording, as diff-able JSON."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__
from .design import DesignParams, UnitCapricep, generate_unit
from .errors import SignalError, whole_number

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SessionMetadata:
    designs: list[DesignParams]  # one per unit, seeds already derived
    t_erd_s: float
    n_o: int
    n_repeats: int
    scale: float
    fs: float

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "fs": self.fs,
            "t_erd_s": self.t_erd_s,
            "n_o": self.n_o,
            "n_repeats": self.n_repeats,
            "scale": self.scale,
            "designs": [d.to_dict() for d in self.designs],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionMetadata":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SignalError(f"malformed sidecar: {exc}") from exc
        if not isinstance(doc, dict):
            raise SignalError("malformed sidecar: top level is not an object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SignalError(
                f"unsupported sidecar schema version {doc.get('schema_version')}")
        try:
            meta = cls(
                designs=[DesignParams.from_dict(d) for d in doc["designs"]],
                t_erd_s=float(doc["t_erd_s"]),
                n_o=whole_number(doc["n_o"], "n_o"),
                n_repeats=whole_number(doc["n_repeats"], "n_repeats"),
                scale=float(doc["scale"]),
                fs=float(doc["fs"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SignalError(
                f"malformed sidecar: {type(exc).__name__}: {exc}") from exc
        if not (math.isfinite(meta.scale) and meta.scale > 0.0):
            raise SignalError(f"sidecar scale must be finite and > 0, got {meta.scale}")
        return meta

    def regenerate_units(self) -> list[UnitCapricep]:
        return [generate_unit(d, self.t_erd_s) for d in self.designs]


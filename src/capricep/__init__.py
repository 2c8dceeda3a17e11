"""CAPRICEP: cascaded all-pass test pulses for acoustic measurement."""

__version__ = "0.1.0"

from .allpass import CascadeResponse, cascade_phase, impulse_response
from .design import (
    DesignParams,
    UnitCapricep,
    composite_unit,
    draw_sections,
    generate_unit,
)
from .sequences import B4, build_sequence, build_test_signal
from .analyzer import DecompositionResult, compress, decompose, orthogonalize, synchronous_average
from .simulator import VirtualSystem, run
from .augment import AugmentReport, augment

__all__ = [
    "CascadeResponse",
    "cascade_phase",
    "impulse_response",
    "DesignParams",
    "UnitCapricep",
    "draw_sections",
    "generate_unit",
    "composite_unit",
    "B4",
    "build_sequence",
    "build_test_signal",
    "DecompositionResult",
    "compress",
    "decompose",
    "orthogonalize",
    "synchronous_average",
    "VirtualSystem",
    "run",
    "AugmentReport",
    "augment",
]

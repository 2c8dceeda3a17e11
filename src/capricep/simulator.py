"""Virtual measurement chain for validating the analyzer without hardware.

``run`` holds its input and its output, and otherwise only buffers of
_CHUNK samples: it convolves straight into the output, applies the
polynomial and the drift gain to it _CHUNK samples at a time in place,
and draws the noise _CHUNK samples at a time, in stream order, adding
it in place.  Each sample goes through the same operations as on whole
arrays, so the output does not depend on _CHUNK.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SignalError, whole_number
from .fftconv import convolve

# Most samples of latency, or of pre-signal silence, the simulator will
# allocate: 2**24 float64 samples are 128 MiB, over 5 minutes at 48 kHz.
MAX_PAD_SAMPLES = 2 ** 24

# Samples of the output shaped, or of noise drawn, at a time.
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class VirtualSystem:
    """LTI filter + memoryless polynomial nonlinearity + noise + drift.

    nl_coeffs[p] multiplies x**(p+1); the default [1.0] is a clean wire.
    drift, when set, is (period_s, depth) sinusoidal gain modulation.
    """

    lti_ir: np.ndarray
    nl_coeffs: tuple = (1.0,)
    noise_level_db: float | None = None
    drift: tuple | None = None
    latency_samples: int = 0
    noise_seed: int = 0

    def validate(self) -> None:
        ir = np.asarray(self.lti_ir, dtype=float)
        if ir.ndim != 1 or ir.size == 0 or not np.all(np.isfinite(ir)):
            raise SignalError("lti_ir must be a finite, nonempty 1-D array")
        if not np.all(np.isfinite(self.nl_coeffs)):
            raise SignalError("nl_coeffs must be finite")
        if self.noise_level_db is not None and not np.isfinite(self.noise_level_db):
            raise SignalError("noise_level_db must be finite")
        if self.drift is not None:
            if len(self.drift) != 2 or not np.all(np.isfinite(self.drift)):
                raise SignalError("drift must be two finite numbers (period_s, depth)")
            period, depth = self.drift
            if period <= 0 or not 0.0 <= depth < 0.5:
                raise SignalError("drift depth must be in [0, 0.5) with period > 0")
        if not 0 <= whole_number(self.latency_samples, "latency_samples") <= MAX_PAD_SAMPLES:
            raise SignalError(
                f"latency_samples={self.latency_samples} outside 0 .. {MAX_PAD_SAMPLES}")
        if whole_number(self.noise_seed, "noise_seed") < 0:
            raise SignalError("noise_seed must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "VirtualSystem":
        """Parse a system description; a missing ``lti_ir`` or a field of
        the wrong type raises SignalError."""
        if not isinstance(d, dict):
            raise SignalError("system description must be a JSON object")
        try:
            noise = d.get("noise_level_db")
            return cls(
                lti_ir=np.asarray(d["lti_ir"], dtype=float),
                nl_coeffs=tuple(float(c) for c in d.get("nl_coeffs", [1.0])),
                noise_level_db=None if noise is None else float(noise),
                drift=tuple(float(v) for v in d["drift"]) if d.get("drift") else None,
                latency_samples=whole_number(d.get("latency_samples", 0), "latency_samples"),
                noise_seed=whole_number(d.get("noise_seed", 0), "noise_seed"),
            )
        except KeyError as exc:
            raise SignalError(f"system description lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SignalError(f"malformed system description: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "VirtualSystem":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SignalError(f"system file is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def _polynomial(y: np.ndarray, coeffs) -> np.ndarray:
    """0.0 + c1 y + c2 y^2 + ..., added in that order.  Each power is
    built in place, and so is the last power's term, which may be y."""
    last = max((p for p, c in enumerate(coeffs) if c != 0.0), default=-1)
    if last < 0:
        return np.zeros_like(y)
    nl, xp = None, y
    for p, c in enumerate(coeffs[:last + 1]):
        if p == 1:
            xp = y * y
        elif p > 1:
            xp *= y
        if c != 0.0:
            term = np.multiply(xp, c, out=xp if p == last else None)
            nl = np.add(term, 0.0, out=term) if nl is None else np.add(nl, term, out=nl)
    return nl


def run(
    system: VirtualSystem,
    signal: np.ndarray,
    fs: float,
    pre_silence_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive the virtual system; returns (output, pre_silence).

    output = drift( nl( lti_ir * signal ) ) + noise, delayed by
    latency_samples; pre_silence is a noise-only segment captured with
    the same noise statistics.
    """
    system.validate()
    if not (np.isfinite(pre_silence_s) and 0.0 <= pre_silence_s * fs <= MAX_PAD_SAMPLES):
        raise SignalError(f"pre_silence_s={pre_silence_s} must be finite, >= 0 and "
                          f"at most {MAX_PAD_SAMPLES} samples")
    n_pre = int(round(pre_silence_s * fs))
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise SignalError("input signal is empty")
    ir = np.asarray(system.lti_ir, dtype=float)
    n_lat = int(system.latency_samples)
    out = np.empty(n_lat + len(signal) + len(ir) - 1)
    y = convolve(signal, ir, out[n_lat:])
    for at in range(0, len(y), _CHUNK):
        part = y[at:at + _CHUNK]
        part[:] = _polynomial(part, system.nl_coeffs)
        if not (part.min() >= -10.0 and part.max() <= 10.0):  # also trips on NaN
            raise SignalError("nonlinearity overflow: |y| exceeded 10 or is not finite")
        if system.drift is not None:
            period_s, depth = system.drift
            gain = np.arange(at, at + len(part), dtype=float)
            gain /= fs
            gain *= 2.0 * np.pi
            gain /= period_s
            np.sin(gain, out=gain)
            gain *= depth
            gain += 1.0
            part *= gain

    if system.noise_level_db is None:
        out[:n_lat] = 0.0
        return out, np.zeros(n_pre)
    rng = np.random.default_rng(int(system.noise_seed))
    sigma = 10.0 ** (system.noise_level_db / 20.0)
    pre = rng.normal(0.0, sigma, n_pre)
    noise = np.empty(min(_CHUNK, len(out)))
    for at in range(0, len(out), _CHUNK):
        part = out[at:at + _CHUNK]
        z = rng.standard_normal(out=noise[:len(part)])
        z *= sigma
        lat = min(max(n_lat - at, 0), len(part))  # samples of latency: noise alone
        part[:lat] = z[:lat]
        part[lat:] += z[lat:]
    return out, pre

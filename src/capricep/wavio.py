"""Minimal mono WAV I/O: reads PCM-16, PCM-24 and 32-bit float, and
writes 32-bit float.

``write_wav`` converts and writes _CHUNK samples at a time, so it holds
no float32 or byte copy of the whole signal.  ``read_wav`` reads the
file once and converts its data chunk through a view of those bytes, so
it holds the file and the float64 samples it returns, and no copy of the
chunk.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import SignalError

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_SUPPORTED = {(_FORMAT_FLOAT, 32), (_FORMAT_PCM, 16), (_FORMAT_PCM, 24)}

# WAVE_FORMAT_EXTENSIBLE carries its format code in a sub-format GUID
# (KSDATAFORMAT_SUBTYPE_PCM / _IEEE_FLOAT) at bytes 24-40 of a 40-byte
# fmt chunk whose extension size (bytes 16-18) is at least 22.
_FORMAT_EXTENSIBLE = 0xFFFE
_SUBFORMATS = {
    struct.pack("<H", code) + bytes.fromhex("000000001000800000aa00389b71"): code
    for code in (_FORMAT_PCM, _FORMAT_FLOAT)
}

# Samples converted to float32 and written at a time.
_CHUNK = 1 << 16


def write_wav(path, samples: np.ndarray, fs: float) -> None:
    """Write a mono 32-bit float WAV file."""
    samples = np.asarray(samples, dtype=np.float64)
    n_bytes = 4 * len(samples)
    rate = int(round(fs))
    chunk = np.empty(min(_CHUNK, len(samples)), "<f4")
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + n_bytes))
        f.write(b"WAVEfmt ")
        # fmt chunk size, format, channels, rate, byte rate, block align, bits
        f.write(struct.pack("<IHHIIHH", 16, _FORMAT_FLOAT, 1, rate, 4 * rate, 4, 32))
        f.write(b"data")
        f.write(struct.pack("<I", n_bytes))
        for at in range(0, len(samples), _CHUNK):
            part = chunk[:len(samples) - at]
            part[:] = samples[at:at + _CHUNK]
            f.write(part.data)


def read_wav(path) -> tuple[np.ndarray, float]:
    """Read a mono WAV file into float64 samples in [-1, 1].

    Accepts PCM-16, PCM-24 and 32-bit float, in a plain or a
    WAVE_FORMAT_EXTENSIBLE fmt chunk; anything else raises SignalError.
    """
    with open(path, "rb") as f:
        data = f.read()
    view = memoryview(data)  # chunk bodies are slices of the file, not copies
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise SignalError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        size = struct.unpack("<I", data[pos + 4:pos + 8])[0]
        body = view[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise SignalError(f"{path}: corrupt fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if len(body) < 40 or struct.unpack("<H", body[16:18])[0] < 22:
                    raise SignalError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
                sub = bytes(body[24:40])
                if sub not in _SUBFORMATS:
                    raise SignalError(f"{path}: unsupported WAVE_FORMAT_EXTENSIBLE "
                                      f"sub-format {sub.hex()}")
                fmt = (_SUBFORMATS[sub], *fmt[1:])
        elif chunk_id == b"data":
            if len(body) < size:
                raise SignalError(
                    f"{path}: data chunk declares {size} bytes, file holds {len(body)}")
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise SignalError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise SignalError(
            f"{path}: {channels}-channel WAV not supported; provide mono input")
    if rate == 0:
        raise SignalError(f"{path}: sample rate of 0 Hz")
    if (audio_format, bits) not in _SUPPORTED:
        raise SignalError(
            f"{path}: unsupported format (code={audio_format}, bits={bits})")
    if len(payload) % (bits // 8):
        raise SignalError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole "
            f"number of {bits}-bit samples")
    if audio_format == _FORMAT_FLOAT:
        x = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    elif bits == 16:
        x = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        vals = (raw[:, 0].astype(np.int32)
                | (raw[:, 1].astype(np.int32) << 8)
                | (raw[:, 2].astype(np.int32) << 16))
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        x = vals.astype(np.float64) / 8388608.0
    return x, float(rate)

"""Minimal mono WAV I/O: PCM-16, PCM-24 and 32-bit float."""
from __future__ import annotations

import struct

import numpy as np

from .errors import SignalError

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_SUPPORTED = {(_FORMAT_FLOAT, 32), (_FORMAT_PCM, 16), (_FORMAT_PCM, 24)}


def write_wav(path, samples: np.ndarray, fs: float, subtype: str = "float32") -> None:
    """Write a mono WAV file. subtype: 'pcm16', 'pcm24' or 'float32'."""
    x = np.asarray(samples, dtype=np.float64)
    rate = int(round(fs))
    if subtype == "float32":
        fmt, bits = _FORMAT_FLOAT, 32
        payload = x.astype("<f4").tobytes()
    elif subtype == "pcm16":
        fmt, bits = _FORMAT_PCM, 16
        q = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
        payload = q.tobytes()
    elif subtype == "pcm24":
        fmt, bits = _FORMAT_PCM, 24
        q = np.clip(np.round(x * 8388608.0), -8388608, 8388607).astype("<i4")
        b = q.astype("<i4").tobytes()
        payload = b"".join(b[i:i + 3] for i in range(0, len(b), 4))
    else:
        raise SignalError(f"unsupported subtype {subtype!r}")

    block_align = bits // 8
    byte_rate = rate * block_align
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(payload)))
        f.write(b"WAVEfmt ")
        f.write(struct.pack("<IHHIIHH", 16, fmt, 1, rate, byte_rate, block_align, bits))
        f.write(b"data")
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)


def read_wav(path) -> tuple[np.ndarray, float]:
    """Read a mono WAV file into float64 samples in [-1, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise SignalError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        size = struct.unpack("<I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise SignalError(f"{path}: corrupt fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise SignalError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise SignalError(
            f"{path}: {channels}-channel WAV not supported; provide mono input")
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

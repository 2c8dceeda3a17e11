"""Minimal mono WAV I/O: PCM-16, PCM-24 and 32-bit float."""
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
        payload = q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
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
    """Read a mono WAV file into float64 samples in [-1, 1].

    Accepts PCM-16, PCM-24 and 32-bit float, in a plain or a
    WAVE_FORMAT_EXTENSIBLE fmt chunk; anything else raises SignalError.
    """
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
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if len(body) < 40 or struct.unpack("<H", body[16:18])[0] < 22:
                    raise SignalError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
                if body[24:40] not in _SUBFORMATS:
                    raise SignalError(f"{path}: unsupported WAVE_FORMAT_EXTENSIBLE "
                                      f"sub-format {body[24:40].hex()}")
                fmt = (_SUBFORMATS[body[24:40]], *fmt[1:])
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

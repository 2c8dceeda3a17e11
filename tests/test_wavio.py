"""WAV round trips and malformed-file rejection."""
import struct

import numpy as np
import pytest

from capricep.errors import SignalError
from capricep.wavio import read_wav, write_wav

FS = 8000.0


@pytest.fixture
def wave():
    rng = np.random.default_rng(0)
    return np.clip(0.4 * rng.standard_normal(1000), -0.999, 0.999)


def test_float32_round_trip_is_bit_exact(wave, tmp_path):
    p = tmp_path / "f32.wav"
    write_wav(p, wave, FS, "float32")
    back, fs = read_wav(p)
    assert fs == FS
    assert np.array_equal(back, wave.astype("<f4").astype(np.float64))


def test_pcm16_round_trip_within_one_lsb(wave, tmp_path):
    p = tmp_path / "p16.wav"
    write_wav(p, wave, FS, "pcm16")
    back, fs = read_wav(p)
    assert fs == FS
    assert np.max(np.abs(back - wave)) <= 1.0 / 32768.0


def test_pcm24_round_trip_within_one_lsb(wave, tmp_path):
    p = tmp_path / "p24.wav"
    write_wav(p, wave, FS, "pcm24")
    back, fs = read_wav(p)
    assert fs == FS
    assert np.max(np.abs(back - wave)) <= 1.0 / 8388608.0


def test_pcm24_sign_handling(tmp_path):
    p = tmp_path / "sign.wav"
    x = np.array([-0.5, -1.0 / 8388608.0, 0.0, 0.5])
    write_wav(p, x, FS, "pcm24")
    back, _ = read_wav(p)
    assert np.allclose(back, x, atol=1e-12)


def test_unsupported_subtype_rejected(tmp_path):
    with pytest.raises(SignalError):
        write_wav(tmp_path / "x.wav", np.zeros(4), FS, "pcm32")


def test_stereo_rejected(tmp_path):
    p = tmp_path / "stereo.wav"
    payload = np.zeros(8, dtype="<i2").tobytes()
    with open(p, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(payload)))
        f.write(b"WAVEfmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16))
        f.write(b"data")
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
    with pytest.raises(SignalError, match="mono"):
        read_wav(p)


def test_not_a_wav_rejected(tmp_path):
    p = tmp_path / "junk.wav"
    p.write_bytes(b"this is not audio")
    with pytest.raises(SignalError):
        read_wav(p)


def test_missing_data_chunk_rejected(tmp_path):
    p = tmp_path / "nodata.wav"
    with open(p, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 28))
        f.write(b"WAVEfmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16))
    with pytest.raises(SignalError, match="missing"):
        read_wav(p)


def _raw_wav(path, fmt, bits, payload):
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(payload)))
        f.write(b"WAVEfmt ")
        f.write(struct.pack("<IHHIIHH", 16, fmt, 1, 8000, 8000 * bits // 8, bits // 8, bits))
        f.write(b"data")
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        if len(payload) & 1:
            f.write(b"\0")


@pytest.mark.parametrize("fmt,bits,n_bytes", [
    (1, 16, 7), (3, 32, 10), (1, 24, 8), (1, 24, 1)])
def test_misaligned_data_chunk_rejected(tmp_path, fmt, bits, n_bytes):
    p = tmp_path / "odd.wav"
    _raw_wav(p, fmt, bits, bytes(n_bytes))
    with pytest.raises(SignalError, match="whole number"):
        read_wav(p)
    _raw_wav(p, fmt, bits, bytes(n_bytes - n_bytes % (bits // 8)))
    assert len(read_wav(p)[0]) == n_bytes // (bits // 8)


def test_truncated_data_chunk_rejected(tmp_path):
    p = tmp_path / "short.wav"
    _raw_wav(p, 1, 16, bytes(10))
    raw = bytearray(p.read_bytes())
    raw[40:44] = struct.pack("<I", 1000)  # data size field
    p.write_bytes(bytes(raw))
    with pytest.raises(SignalError, match="declares 1000 bytes"):
        read_wav(p)


def test_pcm24_bytes_equal_the_per_sample_join(tmp_path):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-1.2, 1.2, 10_000), [-1.0, 1.0, 0.0]])
    p = tmp_path / "p24.wav"
    write_wav(p, x, FS, "pcm24")
    b = np.clip(np.round(x * 8388608.0), -8388608, 8388607).astype("<i4").tobytes()
    expected = b"".join(b[i:i + 3] for i in range(0, len(b), 4))
    assert p.read_bytes()[44:] == expected
    write_wav(p, np.zeros(0), FS, "pcm24")
    assert read_wav(p)[0].size == 0

"""WAV round trips and malformed-file rejection."""
import struct
import tempfile
import uuid
import wave as stdlib_wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capricep.errors import SignalError
from capricep.wavio import _CHUNK, read_wav, write_wav

FS = 8000.0


def _write_pcm(path, x, bits):
    """x quantized to bits-bit PCM, written by the stdlib wave module."""
    full = 1 << (bits - 1)
    q = np.clip(np.round(np.asarray(x) * full), -full, full - 1).astype(int)
    with stdlib_wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(bits // 8)
        w.setframerate(int(FS))
        w.writeframes(b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in q))


@pytest.fixture
def wave():
    rng = np.random.default_rng(0)
    return np.clip(0.4 * rng.standard_normal(1000), -0.999, 0.999)


def test_float32_round_trip_is_bit_exact(wave, tmp_path):
    p = tmp_path / "f32.wav"
    write_wav(p, wave, FS)
    back, fs = read_wav(p)
    assert fs == FS
    assert np.array_equal(back, wave.astype("<f4").astype(np.float64))
    # the stdlib's 32-bit PCM header differs only in its format code
    _write_pcm(tmp_path / "pcm32.wav", wave, 32)
    ref = (tmp_path / "pcm32.wav").read_bytes()
    assert p.read_bytes()[:44] == ref[:20] + struct.pack("<H", 3) + ref[22:44]


@pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1])
def test_chunked_payload_equals_the_one_shot_encoding(tmp_path, n):
    """write_wav converts _CHUNK samples at a time; its payload equals the
    whole signal's float32 bytes, and its sizes count every sample."""
    x = np.random.default_rng(n).standard_normal(n)
    write_wav(tmp_path / "x.wav", x, FS)
    data = (tmp_path / "x.wav").read_bytes()
    payload = x.astype("<f4").tobytes()
    assert data[44:] == payload
    assert struct.unpack("<I", data[4:8])[0] == 36 + len(payload)
    assert struct.unpack("<I", data[40:44])[0] == len(payload)
    back, _ = read_wav(tmp_path / "x.wav")
    assert back.tobytes() == x.astype("<f4").astype(np.float64).tobytes()


def test_pcm16_round_trip_within_one_lsb(wave, tmp_path):
    p = tmp_path / "p16.wav"
    _write_pcm(p, wave, 16)
    back, fs = read_wav(p)
    assert fs == FS
    assert np.max(np.abs(back - wave)) <= 1.0 / 32768.0


def test_pcm24_round_trip_within_one_lsb(wave, tmp_path):
    p = tmp_path / "p24.wav"
    _write_pcm(p, wave, 24)
    back, fs = read_wav(p)
    assert fs == FS
    assert np.max(np.abs(back - wave)) <= 1.0 / 8388608.0


def test_pcm24_sign_handling(tmp_path):
    p = tmp_path / "sign.wav"
    x = np.array([-0.5, -1.0 / 8388608.0, 0.0, 0.5])
    _write_pcm(p, x, 24)
    back, _ = read_wav(p)
    assert np.allclose(back, x, atol=1e-12)


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


def _subformat(code):
    """Sub-format GUID KSDATAFORMAT_SUBTYPE_* in its on-disk byte order."""
    return uuid.UUID(f"{code:08x}-0000-0010-8000-00aa00389b71").bytes_le


def _extensible(plain: bytes, subformat: bytes, cb_size: int = 22) -> bytes:
    """The plain 44-byte-header file rewritten with a 40-byte extensible fmt chunk."""
    _, channels, rate, byte_rate, align, bits = struct.unpack("<HHIIHH", plain[20:36])
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, align, bits,
                      cb_size, bits, 0x4) + subformat
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + plain[36:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _write_plain(path, x, subtype):
    """x as a plain WAV of subtype "pcm16", "pcm24" or "float32"."""
    if subtype == "float32":
        write_wav(path, x, FS)
    else:
        _write_pcm(path, x, {"pcm16": 16, "pcm24": 24}[subtype])


@pytest.mark.parametrize("subtype,code", [("pcm16", 1), ("pcm24", 1), ("float32", 3)])
def test_extensible_pcm_and_float_read_like_plain(wave, tmp_path, subtype, code):
    p = tmp_path / "plain.wav"
    _write_plain(p, wave, subtype)
    plain, fs = read_wav(p)
    p.write_bytes(_extensible(p.read_bytes(), _subformat(code)))
    back, fs_ext = read_wav(p)
    assert fs_ext == fs
    assert np.array_equal(back, plain)


@pytest.mark.parametrize("subformat,cb_size,keep,match", [
    (_subformat(6), 22, 40, "sub-format"),  # A-law
    (_subformat(1)[:-1] + b"\0", 22, 40, "sub-format"),  # PCM code, foreign GUID
    (_subformat(1), 0, 40, "too short"),  # extension size below 22
    (_subformat(1), 22, 18, "too short"),  # chunk ends after the extension size
])
def test_extensible_with_other_guid_or_short_extension_rejected(
        wave, tmp_path, subformat, cb_size, keep, match):
    p = tmp_path / "ext.wav"
    _write_pcm(p, wave, 16)
    raw = _extensible(p.read_bytes(), subformat, cb_size)
    fmt = raw[20:20 + keep]
    p.write_bytes(raw[:12] + b"fmt " + struct.pack("<I", keep) + fmt + raw[60:])
    with pytest.raises(SignalError, match=match):
        read_wav(p)


def _read_or_signal_error(path, raw: bytes):
    path.write_bytes(raw)
    try:
        x, _ = read_wav(path)
    except SignalError:
        return
    assert x.dtype == np.float64 and x.ndim == 1


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(raw=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:])))
def test_fuzz_random_bytes_raise_only_signal_error(tmp_path, raw):
    _read_or_signal_error(tmp_path / "fuzz.wav", raw)


def _valid_files():
    x = np.linspace(-0.9, 0.9, 7)
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "valid.wav"
        for subtype, code in (("pcm16", 1), ("pcm24", 1), ("float32", 3)):
            _write_plain(p, x, subtype)
            files += [p.read_bytes(), _extensible(p.read_bytes(), _subformat(code))]
    return files


@_FUZZ
@given(raw=st.sampled_from(_valid_files()), data=st.data())
def test_fuzz_mutated_headers_raise_only_signal_error(tmp_path, raw, data):
    raw = bytearray(raw)
    header = len(raw) - 7 * raw[34] // 8  # offset of the 7 samples
    kind = data.draw(st.sampled_from(["chunk id", "size", "format", "bytes", "truncate"]))
    if kind == "chunk id":
        at = data.draw(st.sampled_from([0, 8, 12, header - 8]))
        raw[at:at + 4] = data.draw(st.binary(min_size=4, max_size=4))
    elif kind == "size":
        at = data.draw(st.sampled_from([4, 16, header - 4]))
        raw[at:at + 4] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
    elif kind == "format":
        at = data.draw(st.sampled_from([20, 22, 32, 34, 36, 38, 44]))
        raw[at:at + 2] = struct.pack("<H", data.draw(st.integers(0, 2**16 - 1)))
    elif kind == "bytes":
        at = data.draw(st.integers(0, header - 1))
        raw[at:at + 1] = data.draw(st.binary(min_size=1, max_size=1))
    else:
        del raw[data.draw(st.integers(0, len(raw))):]
    _read_or_signal_error(tmp_path / "fuzz.wav", bytes(raw))

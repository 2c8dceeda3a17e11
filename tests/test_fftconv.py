"""FFT convolution on numpy.fft against scipy's fftconvolve and
next_fast_len, and numpy's direct correlation."""
import numpy as np
import pytest
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from capricep.fftconv import (
    _CHUNK_FRAMES,
    OverlapSave,
    autocorrelation,
    convolve,
    fill,
    next_fast_len,
)

# Frame and hop for a longest kernel of 256 samples: L = max(4096,
# next_pow2(8 * 256)) = 4096, and each frame yields L - 255 samples.
FRAME_256 = 4096
HOP_256 = FRAME_256 - 255


@pytest.mark.parametrize("n,kernel_lengths", [
    (5000, [1]),                      # a kernel of length 1
    (20000, [256, 1, 37, 255, 100]),  # mixed lengths; the longest sets m
    (FRAME_256 - 255, [256]),         # len(x) + m - 1 == L: one frame
    (FRAME_256 - 254, [256]),         # one sample more: two frames
    (100, [256]),                     # signal shorter than the kernel
    (1, [256, 1]),
    (3 * HOP_256 - 255, [256]),       # len(x) + m - 1 an exact multiple of the hop
    (3 * HOP_256 - 254, [256]),
    (374407, [1111] * 4),             # a measure-sized recording and units
])
def test_matches_direct_full_convolution(n, kernel_lengths):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    framed = OverlapSave(x, max(kernel_lengths))
    for k in kernel_lengths:
        kernel = rng.standard_normal(k)
        ref = fftconvolve(x, kernel, mode="full")
        out = framed.convolve(kernel)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_frame_geometry():
    assert OverlapSave(np.ones(FRAME_256 - 255), 256)._spec.shape[0] == 1
    assert OverlapSave(np.ones(FRAME_256 - 254), 256)._spec.shape[0] == 2
    assert OverlapSave(np.ones(3 * HOP_256 - 255), 256)._spec.shape[0] == 3
    assert OverlapSave(np.ones(3 * HOP_256 - 254), 256)._spec.shape[0] == 4


@pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1, 2 * _CHUNK_FRAMES,
                                      3 * _CHUNK_FRAMES + 1])
def test_chunked_frames_are_bit_identical_to_one_batch(n_frames):
    """Frame counts below, at and past a multiple of the chunk, and the
    single-frame grid (n_frames 1): the framed spectrum, and each
    convolution into a new array or into ``out``, and through ``work``
    buffers too short for a frame, of 3 frames and a part, and of 16384
    samples, equal the rfft and irfft of every frame in one batch, bit
    for bit."""
    n = 100 if n_frames == 1 else n_frames * HOP_256 - 255
    rng = np.random.default_rng(n_frames)
    x = rng.standard_normal(n)
    framed = OverlapSave(x, 256)
    frame, skip = framed.frame, framed.skip
    hop = frame - skip
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[skip:skip + n] = x
    spec = np.fft.rfft(sliding_window_view(padded, frame)[::hop], axis=-1)
    assert framed._spec.tobytes() == spec.tobytes()
    for k in (256, 37):
        kernel = rng.standard_normal(k)
        n_out = n + k - 1
        rows = spec[:-(-n_out // hop)] * np.fft.rfft(kernel, frame)
        batch = np.fft.irfft(rows, frame, axis=-1)[:, skip:].ravel()[:n_out]
        out = np.full(n_out, np.nan)
        assert framed.convolve(kernel, out) is out
        assert out.tobytes() == batch.tobytes()
        assert framed.convolve(kernel).tobytes() == batch.tobytes()
        for work in (np.empty(frame - 1), np.empty(3 * frame + 5), np.empty(16384)):
            assert framed.convolve(kernel, work=work).tobytes() == batch.tobytes()
        ref = fftconvolve(x, kernel)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1, 2 * _CHUNK_FRAMES,
                                      3 * _CHUNK_FRAMES + 1])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_one_kernel_convolve_is_bit_identical_to_overlap_save(n_frames, scale):
    """convolve keeps no frame spectra and divides by scale as it fills
    its frames; its output equals OverlapSave's on the divided signal,
    bit for bit, into a new array or into ``out``."""
    n = 100 if n_frames == 1 else n_frames * HOP_256 - 255
    rng = np.random.default_rng(n_frames)
    x = rng.standard_normal(n)
    kernel = rng.standard_normal(256)
    want = OverlapSave(x / scale, 256).convolve(kernel)
    assert convolve(x, kernel, scale=scale).tobytes() == want.tobytes()
    out = np.full(n + 255, np.nan)
    assert convolve(x, kernel, out, scale) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("at", [-20, -5, 0, 3, 7, 10, 15])
def test_fill_pads_with_zeros_where_the_signal_has_no_sample(at):
    x = np.arange(1.0, 11.0)
    padded = np.concatenate([np.zeros(20), x, np.zeros(20)])
    want = padded[at + 20:at + 25] / 4.0
    assert fill(np.full(5, np.nan), x, at, 4.0).tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [0, 96, 98])
def test_convolve_refuses_an_out_of_another_length(length):
    framed = OverlapSave(np.ones(90), 8)  # 90 + 8 - 1 = 97 samples
    with pytest.raises(ValueError, match="not 97"):
        framed.convolve(np.ones(8), np.empty(length))
    with pytest.raises(ValueError, match="not 97"):
        convolve(np.ones(90), np.ones(8), np.empty(length))


def test_rejects_a_kernel_longer_than_declared():
    framed = OverlapSave(np.ones(100), 8)
    with pytest.raises(ValueError):
        framed.convolve(np.ones(9))
    for empty in (OverlapSave, lambda x, m: convolve(x, np.ones(m))):
        with pytest.raises(ValueError):
            empty(np.array([]), 8)


def test_next_fast_len_is_scipys_real_fast_length():
    for n in range(1, 60000):
        assert next_fast_len(n) == scipy.fft.next_fast_len(n, True), n


@pytest.mark.parametrize("n", [1, 2, 3, 97, 256, 1000])
def test_autocorrelation_matches_direct_correlation(n):
    x = np.random.default_rng(n).standard_normal(n)
    want = np.correlate(x, x, "full")
    got = autocorrelation(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * want[n - 1]

"""FFT convolution on numpy.fft against scipy's fftconvolve and
next_fast_len, and numpy's direct correlation."""
import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

from capricep.fftconv import OverlapSave, autocorrelation, next_fast_len

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


def test_rejects_a_kernel_longer_than_declared():
    framed = OverlapSave(np.ones(100), 8)
    with pytest.raises(ValueError):
        framed.convolve(np.ones(9))
    with pytest.raises(ValueError):
        OverlapSave(np.array([]), 8)


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

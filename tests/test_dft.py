"""The DFT convention the package's formulas assume.

``spectral.py`` and ``fastconv.py`` call ``np.fft`` directly and rely on
its unnormalized forward transform û_p = Σ_m v_m e^{-2πimp/M}, its 1/M
inverse and the cyclic convolution theorem.  These are checked against the
direct sums in ``tests/oracles.py``, at power-of-two, composite and prime
lengths.
"""

import numpy as np
import pytest

from .oracles import cyclic_convolution_direct, dft_direct


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestForward:
    @pytest.mark.parametrize("length", [16, 13, 31, 101])
    def test_matches_direct_summation(self, length):
        rng = np.random.default_rng(length)
        v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        assert _rel(np.fft.fft(v), dft_direct(v)) < 1e-13


class TestInverse:
    def test_scaled_delta_to_ones(self):
        m = 5
        v = np.zeros(m, dtype=complex)
        v[0] = m
        assert np.fft.ifft(v) == pytest.approx(np.ones(m))


class TestProperties:
    @pytest.mark.parametrize("length", [4, 15, 37, 64])
    def test_convolution_theorem(self, length):
        rng = np.random.default_rng(length + 2)
        u = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        via_fft = np.fft.ifft(np.fft.fft(u) * np.fft.fft(v))
        direct = cyclic_convolution_direct(u, v)
        assert _rel(via_fft, direct) < 1e-12

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.errors import SampleShapeError
from fraclap.fastconv import FastConvolver, fast_singular_integral
from fraclap.grid import GridSpec
from fraclap.quadrature import (MidpointSamples, SingularParams,
                                singular_integral_direct)


def _random_samples(g: GridSpec, seed: int) -> MidpointSamples:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.num_midpoints) + 1j * rng.standard_normal(
        g.num_midpoints
    )
    return MidpointSamples(values=v, grid=g)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _smooth5_oracle(n: int) -> int:
    """Smallest 2^a·3^b·5^c ≥ n, by enumerating all small exponents."""
    e = range(n.bit_length() + 1)  # the answer is < 2n: no exponent is larger
    return min(x for x in (2**a * 3**b * 5**c for a in e for b in e for c in e)
               if x >= n)


class TestFftLength:
    @pytest.mark.parametrize("n", [1, 2, 3, 97, 2**20, 10000019])
    @pytest.mark.parametrize("r", [1, 2, 3, 7, 32])
    def test_smallest_5_smooth_multiple_of_2r(self, n, r):
        # Integer arithmetic only: building the plan is lazy, so even the
        # ten-million-node grid allocates nothing here.
        length = FastConvolver(GridSpec(N=n, r=r, L=1.0),
                               SingularParams(beta=1.0, gamma=0.0)).fft_length
        m, rem = divmod(length, 2 * r)
        assert rem == 0
        assert length >= 4 * r * n - 2 * r
        for prime in (2, 3, 5):
            while m % prime == 0:
                m //= prime
        assert m == 1
        assert length == 2 * r * _smooth5_oracle(2 * n - 1)


def _kernel(conv: FastConvolver) -> np.ndarray:
    """κ on its cyclic length-P layout, rebuilt from the plan's row table.

    Row ρ of the table is the FFT of κ_ρ[q] = κ[(2rq − ρ) mod P], so its
    inverse FFT puts κ back at those indices.
    """
    rows = np.fft.ifft(conv._kernel_table(), axis=1)
    two_r, m = rows.shape
    q, rho = np.meshgrid(np.arange(m), np.arange(two_r))
    kappa = np.empty(conv.fft_length, dtype=complex)
    kappa[(two_r * q - rho) % conv.fft_length] = rows
    return kappa


def _read_shifts(g: GridSpec, length: int) -> np.ndarray:
    """Mask of the cyclic shifts t ∈ [−(2rN−1), 2r(N−1)] some A_j reads."""
    t = np.arange(length)
    return (t <= 2 * g.r * (g.N - 1)) | (t >= length - (g.num_midpoints - 1))


def _moving_weight(g: GridSpec, gamma: float, t: np.ndarray) -> np.ndarray:
    """M(t+r−1) from its two-sided definition, without the symmetry."""
    a = t + g.r - 1.0
    z = g.h * (a + 0.5)
    return (np.sin(z) / z) ** gamma * (
        np.sign(a + 1) * np.abs(a + 1) ** (gamma + 1.0)
        - np.sign(a) * np.abs(a) ** (gamma + 1.0))


class TestKernelLayout:
    def test_zero_samples_zero_k_columns(self):
        # The samples enter only through a_n = weight·f_n: zero samples give
        # exactly zero, and the plan (kernel table, weights) is the same
        # whatever samples built it.
        g = GridSpec(N=6, r=2, L=1.0)
        p = SingularParams(beta=0.7, gamma=0.2)
        zero = FastConvolver(g, p)
        assert np.all(zero.apply(np.zeros(g.num_midpoints)) == 0)
        other = FastConvolver(g, p)
        other.apply(_random_samples(g, 1).values)
        for a, b in zip(zero._plan, other._plan):
            assert np.array_equal(a, b)

    def test_gamma_zero_l1_is_unit_interval_lengths(self):
        # With gamma = 0 the moving factor integrates to the plain interval
        # length, i.e. exactly 1 in index units, on every shift that is read;
        # so every output node sums the same weighted samples.
        g = GridSpec(N=4, r=1, L=1.0)
        p = SingularParams(beta=1.0, gamma=0.0)
        conv = FastConvolver(g, p)
        kappa = _kernel(conv)
        read = _read_shifts(g, conv.fft_length)
        assert not np.all(read)
        assert kappa[read] == pytest.approx(np.ones(read.sum()), abs=1e-13)
        assert np.max(np.abs(kappa[~read])) < 1e-13
        out = conv.apply(_random_samples(g, 2).values)
        assert _rel(out, np.full(g.N, out[0])) < 1e-13

    def test_odd_n_high_residue_columns_stop_early(self):
        # N = 5, r = 3: 2N−1 = 9 is 5-smooth, so the shifts read fill the
        # buffer exactly; κ ends at t = 2r(N−1) and wraps to t = −(2rN−1).
        g = GridSpec(N=5, r=3, L=1.0)
        conv = FastConvolver(g, SingularParams(beta=0.5, gamma=0.5))
        assert conv.fft_length == 4 * g.r * g.N - 2 * g.r
        t = np.arange(conv.fft_length)
        t = np.where(_read_shifts(g, conv.fft_length) & (t > 2 * g.r * (g.N - 1)),
                     t - conv.fft_length, t)
        expected = _moving_weight(g, 0.5, t)
        assert np.all(expected != 0)
        assert _rel(_kernel(conv), expected) < 1e-13

    def test_k_columns_zero_padded_beyond_active_rows(self):
        g = GridSpec(N=7, r=2, L=1.0)
        conv = FastConvolver(g, SingularParams(beta=1.2, gamma=-0.4))
        kappa = _kernel(conv)
        read = _read_shifts(g, conv.fft_length)
        t = np.arange(conv.fft_length)
        t = np.where(t > 2 * g.r * (g.N - 1), t - conv.fft_length, t)
        expected = _moving_weight(g, -0.4, t[read])
        assert _rel(kappa[read], expected) < 1e-13
        assert not np.all(read)
        assert np.max(np.abs(kappa[~read])) < 1e-13 * np.max(np.abs(expected))


class TestFastAgainstDirect:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_matches_direct(self, n, r):
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=1.3, gamma=-0.3)
        F = _random_samples(g, 10 * n + r)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    def test_constant_samples_integrate_sine(self):
        g = GridSpec(N=8, r=16, L=1.0)
        F = MidpointSamples(values=np.ones(g.num_midpoints), grid=g)
        out = fast_singular_integral(F, SingularParams(beta=1.0, gamma=0.0))
        assert out == pytest.approx(np.full(g.N, 2.0), abs=1e-4)

    def test_single_node_grid(self):
        g = GridSpec(N=1, r=3, L=1.0)
        p = SingularParams(beta=0.3, gamma=0.7)
        F = _random_samples(g, 5)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 300), r=st.integers(1, 7),
           beta=st.floats(0.001, 4.0), gamma=st.floats(-0.999, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=293, r=7, beta=1.99, gamma=-0.99, seed=0)  # criterion 1's pair
    @example(n=1, r=1, beta=1.99, gamma=-0.99, seed=1)
    @example(n=101, r=3, beta=1.99, gamma=-0.99, seed=2)
    @example(n=1, r=32, beta=1.99, gamma=-0.99, seed=3)  # the NLS runs' r
    @example(n=31, r=32, beta=1.99, gamma=-0.99, seed=4)
    @example(n=300, r=110, beta=1.99, gamma=-0.99, seed=5)  # rows: 218 + 2
    def test_property_fast_equals_direct(self, n, r, beta, gamma, seed):
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=beta, gamma=gamma)
        F = _random_samples(g, seed)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    def test_linearity(self):
        g = GridSpec(N=12, r=2, L=1.0)
        p = SingularParams(beta=1.99, gamma=-0.99)
        f1, f2 = _random_samples(g, 6), _random_samples(g, 7)
        a, b = 0.3 - 2j, 1.1 + 0.5j
        combined = MidpointSamples(values=a * f1.values + b * f2.values, grid=g)
        assert _rel(
            fast_singular_integral(combined, p),
            a * fast_singular_integral(f1, p) + b * fast_singular_integral(f2, p),
        ) < 1e-12


class TestConvolverReuse:
    def test_cached_plan_matches_one_shot(self):
        g = GridSpec(N=9, r=4, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        plan = FastConvolver(g, p, cache_kernels=True)
        for seed in (20, 21, 22):
            F = _random_samples(g, seed)
            assert np.array_equal(plan.apply(F.values),
                                  plan.apply(F.values))
            assert _rel(plan.apply(F.values),
                        fast_singular_integral(F, p)) < 1e-14

    def test_one_shot_memory_is_a_few_sample_arrays(self):
        # Without a cache, one call holds at most the kernel table, the
        # weights and one transform buffer; the table and the buffer are
        # 2x the samples each at this size (P = 4rN).
        import tracemalloc

        g = GridSpec(N=2**16, r=1, L=1.0)
        F = _random_samples(g, 30)
        p = SingularParams(beta=1.3, gamma=-0.3)
        fast_singular_integral(F, p)  # warm-up
        tracemalloc.start()
        try:
            fast_singular_integral(F, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * F.values.nbytes

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_is_a_few_sample_arrays(self):
        # pocketfft's scratch (2 copies of the points of one call) is
        # invisible to tracemalloc, so this reads the peak RSS of a fresh
        # interpreter around one apply.  VmHWM, unlike ru_maxrss, does not
        # inherit the launching process's peak across exec.  At r = 1 the
        # kernel table and the buffer are 2x the samples each, and so is
        # the scratch of one row's FFT: about 6x.  One FFT over all P
        # points needed 4x for its scratch alone, about 9x in all.
        code = textwrap.dedent("""
            import numpy as np
            from fraclap.fastconv import fast_singular_integral
            from fraclap.grid import GridSpec
            from fraclap.quadrature import MidpointSamples, SingularParams

            def peak():
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) * 1024 for line in f
                                if line.startswith("VmHWM:"))

            g = GridSpec(N=2**18, r=1, L=1.0)
            rng = np.random.default_rng(31)
            v = np.empty(g.num_midpoints, dtype=complex)
            v.real = rng.standard_normal(g.num_midpoints)
            v.imag = rng.standard_normal(g.num_midpoints)
            F = MidpointSamples(values=v, grid=g)
            before = peak()
            fast_singular_integral(F, SingularParams(beta=1.3, gamma=-0.3))
            print((peak() - before) / v.nbytes)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert float(proc.stdout) <= 7.0

    def test_wrong_length_rejected(self):
        g = GridSpec(N=4, r=1, L=1.0)
        plan = FastConvolver(g, SingularParams(beta=1.0, gamma=0.0))
        with pytest.raises(SampleShapeError):
            plan.apply(np.ones(7))


@pytest.mark.slow
class TestCostScaling:
    def test_doubling_n_stays_log_linear(self):
        import time

        p = SingularParams(beta=1.3, gamma=-0.3)
        times = []
        for n in (2**16, 2**17):
            g = GridSpec(N=n, r=1, L=1.0)
            F = _random_samples(g, n)
            plan = FastConvolver(g, p, cache_kernels=False)
            plan.apply(F.values)  # warm-up
            t0 = time.perf_counter()
            plan.apply(F.values)
            times.append(time.perf_counter() - t0)
        # Log-linear cost: doubling N should land near 2x and must stay
        # well under 4x even with timer noise.
        assert times[1] / times[0] < 4.0

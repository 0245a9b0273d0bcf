import os
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap import fastconv
from fraclap.errors import SampleShapeError
from fraclap.fastconv import FastConvolver, fast_singular_integral
from fraclap.grid import GridSpec
from fraclap.quadrature import (MidpointSamples, SingularParams,
                                singular_integral_direct)


def _random_samples(g: GridSpec, seed: int, real: bool = False) -> MidpointSamples:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.num_midpoints)
    if not real:
        v = v + 1j * rng.standard_normal(g.num_midpoints)
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


def _pair_sigma(c, r):
    """σ of pair c: its table row is transformed from M(2rq + σ) and the
    mirrored M(2rq + 2r−1−σ), and conjugated when 2c < r."""
    return r - 1 - 2 * c if 2 * c < r else 2 * c - r


def _kernel(conv: FastConvolver) -> np.ndarray:
    """κ on its cyclic length-P layout, rebuilt from the plan's pair table.

    Row c of the table is T_{2c}, the rfft of κ_{2c}, and T_{2r−1−2c} is its
    conjugate; the irfft of T_ρ puts κ back at the indices (2rq − ρ) mod P.
    """
    pairs = conv._kernel_rows(0, conv.grid.r)
    two_r = 2 * conv.grid.r
    table = np.empty((two_r, pairs.shape[1]), dtype=complex)
    table[0::2] = pairs
    table[::-2] = pairs.conj()
    m = conv.fft_length // two_r
    rows = np.fft.irfft(table, n=m, axis=1)
    q, rho = np.meshgrid(np.arange(m), np.arange(two_r))
    kappa = np.empty(conv.fft_length)
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
        # whatever samples built it, real or complex.
        g = GridSpec(N=6, r=2, L=1.0)
        p = SingularParams(beta=0.7, gamma=0.2)
        zero = FastConvolver(g, p)
        assert np.all(zero.apply(np.zeros(g.num_midpoints)) == 0)
        assert np.all(zero.apply(np.zeros(g.num_midpoints, dtype=complex)) == 0)
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

    @pytest.mark.parametrize("n, r", [(2**16, 1), (4096, 3), (1024, 32)])
    def test_far_shift_sinc_matches_mpmath(self, n, r, monkeypatch):
        # The real row of pair c reads M(2r(N−1) + σ) at q = m − N + 1; at
        # σ = r − 1 (pair 0) that is the far shift a = 2rN − r − 1, where
        # h(a+½) is close to π.  At
        # γ = 1 the power difference 2a + 1 is exact, so only the sinc
        # rounds; sin evaluated near π would lose ~eps·2rN relative.
        rows = []
        transform_rows = fastconv._transform_rows

        def keep_rows(transform, a, out):  # the real rows before their rfft
            rows.append(a.copy())
            return transform_rows(transform, a, out)

        monkeypatch.setattr(fastconv, "_transform_rows", keep_rows)
        g = GridSpec(N=n, r=r, L=1.0)
        conv = FastConvolver(g, SingularParams(beta=1.0, gamma=1.0))
        conv._kernel_rows(0, r)
        m = conv.fft_length // (2 * r)
        got = np.concatenate(rows)[:, m - n + 1]
        with mpmath.workdps(40):
            for c in range(r):
                a = 2 * r * (n - 1) + _pair_sigma(c, r)
                z = mpmath.pi * (a + mpmath.mpf(1) / 2) / g.num_midpoints
                exact = mpmath.sin(z) / z * (2 * a + 1)
                assert abs(got[c] - exact) <= 1e-15 * exact


class TestWeights:
    @pytest.mark.parametrize("n, r", [(2**16, 1), (1024, 32), (1, 1), (1, 5),
                                      (13, 3), (101, 32)])
    def test_weights_are_a_palindrome(self, n, r):
        # sin(h(rN + k + ½)) = sin(h(rN − k − ½)) and the power differences
        # mirror too, so the upper half is the lower one reversed, exactly;
        # sin evaluated near π would lose ~1e-11 relative at N = 2^16.  The
        # plan keeps the even residues' rows of that palindrome, and the odd
        # residue 2r−1−2c reads row c reversed.
        g = GridSpec(N=n, r=r, L=1.0)
        beta = 1.3
        k = np.arange(r * n)
        lower = (np.sin(g.h * (k + 0.5)) / (g.h * (k + 0.5))) ** beta * np.diff(
            np.arange(r * n + 1, dtype=float) ** (beta + 1.0))
        w = np.concatenate((lower, lower[::-1])).reshape(n, 2 * r)
        rows = FastConvolver(g, SingularParams(beta=beta, gamma=-0.3))._weights()
        assert rows.shape == (r, n)
        assert np.array_equal(rows, w[:, 0::2].T)
        assert np.array_equal(rows[:, ::-1], w[:, ::-2].T)


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
           seed=st.integers(0, 2**32 - 1), real=st.booleans())
    @example(n=293, r=7, beta=1.99, gamma=-0.99, seed=0, real=False)  # criterion 1
    @example(n=1, r=1, beta=1.99, gamma=-0.99, seed=1, real=False)
    @example(n=101, r=3, beta=1.99, gamma=-0.99, seed=2, real=False)
    @example(n=1, r=32, beta=1.99, gamma=-0.99, seed=3, real=False)  # NLS runs' r
    @example(n=31, r=32, beta=1.99, gamma=-0.99, seed=4, real=False)
    @example(n=300, r=110, beta=1.99, gamma=-0.99, seed=5, real=False)  # 218 + 2 rows
    @example(n=300, r=110, beta=0.8, gamma=0.4, seed=6, real=False)  # large 2rN
    # Real samples: m = 3 is odd at N = 2 (no Nyquist bin); 218 + 2 rows.
    @example(n=2, r=1, beta=1.99, gamma=-0.99, seed=7, real=True)
    @example(n=300, r=110, beta=1.99, gamma=-0.99, seed=8, real=True)
    def test_property_fast_equals_direct(self, n, r, beta, gamma, seed, real):
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=beta, gamma=gamma)
        F = _random_samples(g, seed, real)
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


_PEAK_RSS_CODE = textwrap.dedent("""
    import sys
    import numpy as np
    from fraclap.fastconv import fast_singular_integral
    from fraclap.grid import GridSpec
    from fraclap.quadrature import MidpointSamples, SingularParams

    def peak():
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) * 1024 for line in f
                        if line.startswith("VmHWM:"))

    g = GridSpec(N=int(sys.argv[2]), r=int(sys.argv[3]), L=1.0)
    rng = np.random.default_rng(31)
    v = np.empty(g.num_midpoints, dtype=sys.argv[1])
    v.real = rng.standard_normal(g.num_midpoints)
    if np.iscomplexobj(v):
        v.imag = rng.standard_normal(g.num_midpoints)
    F = MidpointSamples(values=v, grid=g)
    before = peak()
    fast_singular_integral(F, SingularParams(beta=1.3, gamma=-0.3))
    print((peak() - before) / v.nbytes)
""")


def _fresh_apply_peak_rss(dtype: str, n: int = 2**18, r: int = 1) -> float:
    """Peak-RSS rise of one apply at (N, r) in a fresh interpreter, over
    the bytes of its ``dtype`` samples."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CODE, dtype,
                           str(n), str(r)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


class TestConvolverReuse:
    def test_cached_plan_matches_one_shot(self):
        g = GridSpec(N=9, r=4, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        plan = FastConvolver(g, p, cache_kernels=True)
        # Real, complex, real: one kept half table serves both kinds.
        for seed in (20, 21, 22):
            F = _random_samples(g, seed, real=seed != 21)
            assert np.array_equal(plan.apply(F.values),
                                  plan.apply(F.values))
            assert _rel(plan.apply(F.values),
                        fast_singular_integral(F, p)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 64, 101])  # odd and even m
    @pytest.mark.parametrize("r", [1, 3, 32])
    def test_one_shot_half_table_equals_kept_full_table(self, n, r):
        # A kept plan holds one half-spectrum row per pair, T_{2c}; a
        # one-shot plan builds the same rows batch by batch, to the bit.
        # With T_{2r−1−2c} = conj T_{2c} and the upper bins T_ρ[m − k] =
        # conj T_ρ[k], which complex rows read reversed, the r rows stand
        # for the full spectra of all 2r rows.
        g = GridSpec(N=n, r=r, L=1.0)
        kept = FastConvolver(g, SingularParams(beta=0.6, gamma=0.1))
        kept.apply(_random_samples(g, 100 * n + r).values)
        table = kept._plan[1]
        m = kept.fft_length // (2 * r)
        assert table.shape == (r, m // 2 + 1)
        for k in (1, 2, 5):
            for c0 in range(0, r, k):
                rows = kept._kernel_rows(c0, min(c0 + k, r))
                assert np.array_equal(rows, table[c0:c0 + k])
        rows = np.empty((2 * r, m // 2 + 1), dtype=complex)  # by residue
        rows[0::2], rows[::-2] = table, table.conj()
        full = np.fft.fft(np.fft.irfft(rows, n=m, axis=1), axis=1)
        assert _rel(np.concatenate((rows, rows[::-1, (m - 1) // 2:0:-1]),
                                   axis=1), full) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 64, 101])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 32])
    def test_kept_and_one_shot_agree_in_any_call_order(self, n, r):
        # A kept plan conjugates a batch of its rows into scratch, a one-shot
        # plan its own rows in place: the same bits in every order of real
        # and complex calls, cold and warm.
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        samples = {real: _random_samples(g, 10 * n + r + real, real).values
                   for real in (False, True)}
        once = {real: fast_singular_integral(MidpointSamples(values=v, grid=g), p)
                for real, v in samples.items()}
        for order in ((False, True, False), (True, False, True)):
            kept = FastConvolver(g, p)
            for real in order:
                assert np.array_equal(kept.apply(samples[real]), once[real])

    def test_kept_plan_is_never_written(self):
        # Real and complex calls read the kept weights and table; the odd
        # rows' conjugate goes into scratch, never into the plan.
        g = GridSpec(N=64, r=5, L=1.0)
        kept = FastConvolver(g, SingularParams(beta=0.6, gamma=0.1))
        kept.apply(_random_samples(g, 1, real=True).values)
        saved = [a.copy() for a in kept._plan]
        for seed, real in ((2, False), (3, True), (4, False)):
            kept.apply(_random_samples(g, seed, real).values)
            for a, b in zip(kept._plan, saved):
                assert np.array_equal(a, b)

    def test_one_shot_memory_is_a_few_sample_arrays(self):
        # Without a cache, one call holds at most one transform buffer (2x
        # the samples at this size, P = 4rN) and the temporaries of the
        # pair's kernel row, built once the buffer is transformed (1.25x);
        # the weights (0.25x) are dropped by then.  Measured 3.25x.
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
        assert peak <= 3.4 * F.values.nbytes

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_is_a_few_sample_arrays(self):
        # pocketfft's scratch (2 copies of the points of one call) is
        # invisible to tracemalloc, so this reads the peak RSS of a fresh
        # interpreter around one apply.  VmHWM, unlike ru_maxrss, does not
        # inherit the launching process's peak across exec.  At r = 1 the
        # half kernel table is 1x the samples, the buffer 2x, and the
        # scratch of one row's FFT 2x: about 5x.  A mirrored full table
        # would add 1x, and one FFT over all P points would need 4x for its
        # scratch alone, about 9x in all.
        assert _fresh_apply_peak_rss("complex") <= 5.6

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_real_samples(self):
        # Real samples build only the half table (2x the float samples) and
        # transform their rows in place inside the half-spectrum buffer
        # (2x); with the weights and one row's scratch that is about 7x.
        # The same samples cast to complex need about 12x their float bytes.
        assert _fresh_apply_peak_rss("float") <= 11.0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    @pytest.mark.parametrize("dtype, bound", [("complex", 0.8), ("float", 1.2)])
    def test_one_shot_peak_rss_streams_the_table(self, dtype, bound):
        # At N = 2^16, r = 8 a batch holds one pair, so a one-shot call
        # builds one kernel row at a time; the weights (1/4 of the complex
        # samples' bytes) are the only plan array of all pairs.  Measured
        # 0.47x (complex) and 0.67x (float), against 1.83x and 3.65x with
        # the whole two-row-per-pair table.
        assert _fresh_apply_peak_rss(dtype, 2**16, 8) <= bound

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

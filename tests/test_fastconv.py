import math
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
    two_r = 2 * conv.grid.r
    m = conv.fft_length // two_r
    pairs = conv._kernel_rows(0, conv.grid.r, fastconv._row_grid(m))
    table = np.empty((two_r, pairs.shape[1]), dtype=complex)
    table[0::2] = pairs
    table[::-2] = pairs.conj()
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
        m = conv.fft_length // (2 * r)
        conv._kernel_rows(0, r, fastconv._row_grid(m))
        got = np.concatenate(rows)[:, m - n + 1]
        with mpmath.workdps(40):
            for c in range(r):
                a = 2 * r * (n - 1) + _pair_sigma(c, r)
                z = mpmath.pi * (a + mpmath.mpf(1) / 2) / g.num_midpoints
                exact = mpmath.sin(z) / z * (2 * a + 1)
                assert abs(got[c] - exact) <= 1e-15 * exact


class TestWeights:
    @pytest.mark.parametrize("n, r", [(2**16, 1), (1024, 32), (1, 1), (1, 5),
                                      (13, 3), (101, 32), (4097, 7),
                                      (65537, 3)])
    def test_weights_are_a_palindrome(self, n, r):
        # sin(h(rN + k + ½)) = sin(h(rN − k − ½)) and the power differences
        # mirror too, so the upper half is the lower one reversed, exactly;
        # sin evaluated near π would lose ~1e-11 relative at N = 2^16.  The
        # plan keeps the even residues' rows of that palindrome, and the odd
        # residue 2r−1−2c reads row c reversed.  The plan evaluates the
        # lower half in blocks of rows; the reference, all of it at once.
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


class TestRowGrid:
    @pytest.mark.parametrize("m", [1, 2, 2**17, 131220, 2**19, 2**21, 20000000])
    def test_grid_shape(self, m):
        # Rows up to the per-call budget stay whole; a longer one is an
        # (m1, m2) grid, m1 the largest divisor of m that is at most √m.
        m1, m2, twiddles = fastconv._row_grid(m)
        assert m1 * m2 == m
        if m <= 1 << 17:
            assert (m2, twiddles) == (1, None)
        else:
            assert m1 * m1 <= m
            assert not any(m % d == 0 for d in range(m1 + 1, math.isqrt(m) + 1))
        if m == 2**21:
            assert (m1, m2) == (1024, 2048)

    @pytest.mark.parametrize("cache_kernels", [False, True])
    def test_one_grid_per_call(self, cache_kernels, monkeypatch):
        # convolve forms the row grid once and builds the kernel rows in
        # it: every _grid call evaluates its two twiddle exp tables anew.
        calls = []
        grid = fastconv._grid
        monkeypatch.setattr(fastconv, "_grid",
                            lambda m1, m2: calls.append(m1) or grid(m1, m2))
        g = GridSpec(N=65537, r=1, L=1.0)  # m = 131220, a 324 × 405 grid
        conv = FastConvolver(g, SingularParams(beta=1.3, gamma=-0.3),
                             cache_kernels=cache_kernels)
        conv.apply(np.ones(g.num_midpoints))
        assert calls == [324]

    @pytest.mark.parametrize("m1, m2", [(1, 1), (1, 5), (3, 5), (5, 5), (6, 10),
                                        (9, 8), (12, 18), (15, 4), (2, 27)])
    @pytest.mark.parametrize("real", [False, True])
    def test_grid_transforms_match_numpy(self, m1, m2, real):
        # Bin k1 + m1·k2 of a row's spectrum sits at k1·m2 + k2, and a real
        # row keeps the grid rows k1 ≤ m1/2; the inverse gives the row back.
        m = m1 * m2
        grid = fastconv._grid(m1, m2)
        rng = np.random.default_rng(100 * m1 + m2)
        rows = rng.standard_normal((3, m))
        if not real:
            rows = rows + 1j * rng.standard_normal((3, m))
        kept = m1 // 2 + 1 if real else m1
        out = np.empty((3, kept * m2), dtype=complex)
        fastconv._grid_forward(rows.reshape(3, m1, m2),
                               out.reshape(3, kept, m2), real, grid)
        spectra = np.fft.fft(rows, axis=1).reshape(3, m2, m1).transpose(0, 2, 1)
        assert _rel(out, spectra[:, :kept].reshape(3, -1)) < 1e-14
        for row, spectrum in zip(rows, out):
            back = fastconv._grid_inverse(spectrum, np.empty(m), real, grid)
            assert back.dtype == row.dtype
            assert _rel(back, row) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 41, 101])
    @pytest.mark.parametrize("r", [1, 2, 3, 7])
    def test_every_row_split_matches_direct(self, n, r, monkeypatch):
        # With no call budget every row is a grid, m = 1 included, with
        # odd factors and odd m1 (N = 7: 3 × 5, N = 13: 5 × 5, N = 41: 9 × 9).
        monkeypatch.setattr(fastconv, "_CALL_POINTS", 0)
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        kept = FastConvolver(g, p)
        for real in (False, True, False):
            F = _random_samples(g, 10 * n + r + real, real)
            direct = singular_integral_direct(F, p)
            assert _rel(fast_singular_integral(F, p), direct) <= 1e-11
            assert _rel(kept.apply(F.values), direct) <= 1e-11

    @pytest.mark.parametrize("n, r", [(65537, 1), (2**17, 1), (2**17, 3)])
    def test_split_route_matches_whole_route(self, n, r, monkeypatch):
        # m = 131220 (N = 65537) and 2^18 split; a budget above m keeps
        # the rows whole, as length-m pocketfft calls.
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=1.3, gamma=-0.3)
        samples = [_random_samples(g, n + r, real) for real in (False, True)]
        split = [fast_singular_integral(F, p) for F in samples]
        monkeypatch.setattr(fastconv, "_CALL_POINTS", 1 << 20)
        for F, got in zip(samples, split):
            assert _rel(got, fast_singular_integral(F, p)) <= 1e-13

    @pytest.mark.parametrize("real", [False, True])
    def test_no_transform_axis_longer_than_the_call_budget(self, real,
                                                           monkeypatch):
        # At N = 2^18, r = 1 a row has m = 2^19 points: every pocketfft call
        # of a one-shot apply (rows, kernel row, inverse) runs along a grid
        # axis of at most 1024 points.
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def record(a, n=None, axis=-1, norm=None, out=None,
                       transform=getattr(np.fft, name)):
                lengths.append(max(np.shape(a)[axis], n or 0))
                return transform(a, n=n, axis=axis, norm=norm, out=out)
            monkeypatch.setattr(np.fft, name, record)
        g = GridSpec(N=2**18, r=1, L=1.0)
        fast_singular_integral(_random_samples(g, 40, real),
                               SingularParams(beta=1.3, gamma=-0.3))
        assert lengths and max(lengths) <= 1 << 17


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
        # A kept plan holds the full spectra of all 2r rows, (2, r, m): row
        # [0, c] = T_{2c} and row [1, c] = conj T_{2c} = T_{2r−1−2c}.  A
        # one-shot plan builds the half rows T_{2c} batch by batch, which
        # are the kept rows' first m//2+1 bins to the bit, and the upper
        # bins, T_ρ[m − k] = conj T_ρ[k], are their mirrored conjugates.
        g = GridSpec(N=n, r=r, L=1.0)
        kept = FastConvolver(g, SingularParams(beta=0.6, gamma=0.1))
        kept.apply(_random_samples(g, 100 * n + r).values)
        table = kept._plan[1]
        m = kept.fft_length // (2 * r)
        h1 = m // 2 + 1
        assert table.shape == (2, r, m)
        for k in (1, 2, 5):
            for c0 in range(0, r, k):
                rows = kept._kernel_rows(c0, min(c0 + k, r),
                                         fastconv._row_grid(m))
                assert np.array_equal(rows, table[0, c0:c0 + k, :h1])
        assert np.array_equal(table[1], table[0].conj())
        assert np.array_equal(table[0, :, h1:],
                              table[0, :, (m - 1) // 2:0:-1].conj())
        rows = np.empty((2 * r, m), dtype=complex)  # by residue
        rows[0::2], rows[::-2] = table
        full = np.fft.fft(np.fft.irfft(rows[:, :h1], n=m, axis=1), axis=1)
        assert _rel(rows, full) < 1e-13

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

    @pytest.mark.parametrize("n, r", [(65537, 1), (65537, 2), (2**17, 1)])
    def test_split_rows_kept_and_one_shot_agree(self, n, r):
        # Rows of m = 131220 and 2^18 points are grids: a kept plan and a
        # one-shot one give the same bits, and the kept plan is never
        # written, in real and complex calls.
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        kept = FastConvolver(g, p)
        saved = None
        for real in (True, False, True):
            v = _random_samples(g, n + r + real, real).values
            once = fast_singular_integral(MidpointSamples(values=v, grid=g), p)
            assert np.array_equal(kept.apply(v), once)
            saved = saved or [a.copy() for a in kept._plan]
            for a, b in zip(kept._plan, saved):
                assert np.array_equal(a, b)

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
        # pocketfft's scratch is invisible to tracemalloc, so this reads the
        # peak RSS of a fresh interpreter around one apply.  VmHWM, unlike
        # ru_maxrss, does not inherit the launching process's peak across
        # exec.  At N = 2^18, r = 1 a row has m = 2^19 points and is
        # transformed as a 512 × 1024 grid, whose calls need scratch for a
        # few columns only: measured 3.02x, against 4.37x with one length-m
        # pocketfft call per row, which faults scratch of 2x for each.
        assert _fresh_apply_peak_rss("complex") <= 3.4

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_real_samples(self):
        # Real samples build only the half table and transform their rows
        # inside the half-spectrum buffer (numpy copies a row's input
        # first).  Measured 4.05x the float samples' bytes as grids, 5.31x
        # with length-m row FFTs.
        assert _fresh_apply_peak_rss("float") <= 4.6

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_split_pairs(self):
        # N = 2^19, r = 2: one pair per batch, rows of m = 2^20 points as
        # 1024 × 1024 grids.  Measured 2.19x, against 3.07x with length-m
        # row FFTs.
        assert _fresh_apply_peak_rss("float", 2**19, 2) <= 2.5

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_one_shot_peak_rss_blocks_the_weights(self):
        # At N = 2^17, r = 8 the peak was reached inside _weights, while its
        # rN-long temporaries (indices, sinc, powers, their differences)
        # coexisted: measured 0.62x the float samples' bytes.  Evaluated in
        # blocks of rows, 0.35x.
        assert _fresh_apply_peak_rss("float", 2**17, 8) <= 0.5

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

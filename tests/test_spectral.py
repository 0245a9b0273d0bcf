import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.errors import ParameterError, SampleShapeError
from fraclap.grid import GridSpec, map_to_real, midpoint_nodes, output_nodes
from fraclap import spectral
from fraclap.profiles import ERF, GAUSSIAN, RATIONAL, mapped_derivatives
from fraclap.spectral import (SampledIntegrand, bin_twiddles,
                              coefficients_from_samples,
                              derivatives_at_midpoints, f_from_analytic,
                              f_from_samples)

from .oracles import (cosine_coefficients_direct, integrand_direct,
                      sine_fold_direct, sine_series_long)


def _nodes(n: int) -> np.ndarray:
    """The shifted nodes s_j = (2j+1)π/(2n), j = 0..n−1."""
    return (2 * np.arange(n) + 1) * math.pi / (2 * n)


def _cosine_series(a, s) -> np.ndarray:
    """Σ_k a_k cos(k s) at every point of s."""
    return np.cos(np.outer(s, np.arange(len(a)))) @ np.asarray(a)


class TestEvenExtension:
    def test_mirrors_reversed(self):
        # The cosine series is u's even extension across pi: on the 2N
        # shifted nodes of the full circle it gives the samples, then the
        # samples reversed.
        u = np.array([1.0, 2.0, 3.0])
        a = coefficients_from_samples(u)
        full = _cosine_series(a, (2 * np.arange(6) + 1) * math.pi / 6)
        assert full == pytest.approx([1, 2, 3, 3, 2, 1], rel=1e-14)

    def test_cosine_already_even(self):
        # cos is even about pi, so its series is cos itself on the full
        # circle, not only on (0, pi).
        a = coefficients_from_samples(np.cos(_nodes(8)))
        s = np.linspace(0.0, 2 * math.pi, 41)
        assert _cosine_series(a, s) == pytest.approx(np.cos(s), abs=1e-14)


class TestCoefficients:
    def test_single_mode_on_circle(self):
        n = 8
        a = coefficients_from_samples(np.cos(2 * _nodes(n)))
        assert a[2] == pytest.approx(1.0)
        # Everything else is zeroed by the filter, except that transform
        # round-off occasionally leaves a coefficient a hair above the
        # machine-epsilon threshold; those stay at round-off level.
        others = np.abs(np.delete(a, 2))
        assert np.max(others) < 1e-15
        assert np.count_nonzero(others) <= 2

    def test_constant(self):
        a = coefficients_from_samples(np.ones(4))
        assert a[0] == pytest.approx(1.0)
        assert np.max(np.abs(a[1:])) == 0.0

    def test_cosine_splits_into_conjugate_pair(self):
        # On the circle cos s = (e^{is} + e^{-is})/2; the cosine coefficient
        # a_1 is the sum of that conjugate pair, 1/2 + 1/2.
        a = coefficients_from_samples(np.cos(_nodes(8)))
        assert a[1] == pytest.approx(1.0)
        assert np.max(np.abs(np.delete(a, 1))) < 1e-15

    def test_non_vector_rejected(self):
        with pytest.raises(SampleShapeError):
            coefficients_from_samples(np.ones((2, 3)))
        with pytest.raises(SampleShapeError):
            coefficients_from_samples(np.ones(0))

    def test_even_extended_real_input_has_conjugate_symmetry(self):
        # For real u the pair û(k), û(−k) of the even extension are equal
        # and conjugate, so every a_k = 2û(k) is real.
        rng = np.random.default_rng(0)
        a = coefficients_from_samples(rng.standard_normal(16))
        assert np.max(np.abs(a.imag)) < 1e-13 * np.max(np.abs(a))

    def test_round_trip_reproduces_band_limited_samples(self):
        # Evaluating the filtered series back at the nodes recovers the
        # samples when u is band-limited.
        s = _nodes(8)
        u = 0.3 + np.cos(s) - 2.0 * np.cos(3 * s) + 0.1 * np.cos(6 * s)
        a = coefficients_from_samples(u)
        assert _cosine_series(a, s) == pytest.approx(u, rel=1e-12, abs=1e-12)


class TestKrasnyFilter:
    # Every a_k with |a_k| < eps·max|a_k| is zeroed; the rule is relative,
    # so scaling u scales the a_k and keeps the same ones.
    @staticmethod
    def _samples(a):
        return _cosine_series(np.asarray(a), _nodes(len(a)))

    def test_all_above_identity(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        for scale in (1.0, 1e-30, 1e30):
            out = coefficients_from_samples(self._samples(scale * a))
            assert np.all(out != 0)
            assert out == pytest.approx(scale * a, rel=1e-14)

    def test_mixed(self):
        a = np.array([1.0, 1e-17, 2.0, 3e-18])
        for scale in (1.0, 1e-30, 1e30):
            out = coefficients_from_samples(self._samples(scale * a))
            assert out[1] == 0 and out[3] == 0
            assert out[[0, 2]] == pytest.approx(scale * a[[0, 2]], rel=1e-14)


class TestDerivativesAtMidpoints:
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_single_mode_exact(self, r):
        # u = cos 2s: f = −4 sin s cos 2s − 4 cos s sin 2s = −4 sin 3s.
        n = 8
        g = GridSpec(N=n, r=r, L=1.0)
        a = coefficients_from_samples(np.cos(2 * _nodes(n)))
        f = derivatives_at_midpoints(a, g)
        s = midpoint_nodes(g)
        assert np.max(np.abs(f + 4 * np.sin(3 * s))) < 1e-12 * 4

    def test_constant_has_zero_derivatives(self):
        g = GridSpec(N=4, r=3, L=1.0)
        f = derivatives_at_midpoints(coefficients_from_samples(np.ones(4)), g)
        assert np.max(np.abs(f)) == 0.0

    @pytest.mark.parametrize("r", [1, 3])
    def test_trig_polynomial_exact_independent_of_r(self, r):
        n = 8
        g = GridSpec(N=n, r=r, L=1.0)
        c3, c5 = 1.1 + 0.5j, 0.7 - 0.2j
        s_nodes = _nodes(n)
        u = c3 * np.cos(3 * s_nodes) + c5 * np.cos(5 * s_nodes)
        f = derivatives_at_midpoints(coefficients_from_samples(u), g)
        s = midpoint_nodes(g)
        us = -3 * c3 * np.sin(3 * s) - 5 * c5 * np.sin(5 * s)
        uss = -9 * c3 * np.cos(3 * s) - 25 * c5 * np.cos(5 * s)
        exact = np.sin(s) * uss + 2 * np.cos(s) * us
        assert np.max(np.abs(f - exact)) < 1e-12 * np.max(np.abs(exact))

    def test_grid_mismatch_rejected(self):
        a = coefficients_from_samples(np.ones(4))
        with pytest.raises(SampleShapeError):
            derivatives_at_midpoints(a, GridSpec(N=8, r=1, L=1.0))

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_single_node_gives_exactly_zero(self, r):
        # N = 1 leaves only a_0, and b_1 carries the factor 1² − 1 = 0.
        F = f_from_samples(np.array([0.3 - 1.7j]), GridSpec(N=1, r=r, L=1.0))
        assert np.all(F.values == 0)

    @pytest.mark.parametrize("r", [1, 3])
    def test_complex_exponential_matches_direct_sum(self, r):
        # e^{3is} is not a finite cosine series on (0, pi): the sine part
        # has a kink in the even extension.  So the check is against the
        # direct sums over the same N coefficients.
        n = 16
        g = GridSpec(N=n, r=r, L=1.0)
        u = np.exp(3j * _nodes(n))
        fast = f_from_samples(u, g).values
        direct = integrand_direct(cosine_coefficients_direct(u),
                                  g.num_midpoints)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_peak_memory_near_two_output_arrays(self):
        import tracemalloc

        # The interleaved output plus one pair of work rows, its bins in
        # the second row and f summed into the first; the whole (r, 2N+2)
        # work array of all pairs at once read 2.00x.  Measured 1.41x
        # (real) and 1.36x (complex coefficients).
        g = GridSpec(N=2**14, r=8, L=1.0)
        u = np.random.default_rng(0).standard_normal(g.N)
        for a in (coefficients_from_samples(u),
                  coefficients_from_samples(u.astype(complex))):
            derivatives_at_midpoints(a, g)
            tracemalloc.start()
            try:
                f = derivatives_at_midpoints(a, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.6 * f.nbytes


class TestSinePairs:
    def test_twiddles_carry_the_dst_factor(self):
        # Row c, mode m: i·e^{iπm(4c+1)/(2M)}/r with M = 2rN; the i is the
        # DST-III's, so a real u's bins stay real.
        g = GridSpec(N=5, r=3, L=1.0)
        c, m = np.arange(g.r)[:, None], np.arange(1, g.N + 1)
        exact = 1j * np.exp(1j * np.pi * m * (4 * c + 1)
                            / (2 * g.num_midpoints)) / g.r
        table = bin_twiddles(g)[:, 1:g.N + 1]
        assert np.max(np.abs(table - exact)) <= 1e-15
        assert np.array_equal(bin_twiddles(g, 1, 2)[:, 1:g.N + 1],
                              table[1:2])

    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_bin_twiddles_of_a_real_row(self, n):
        # An out of N+1 columns, a real row's bins, gets slots 0..N of the
        # full rows, and rows c0..c1−1 are those of the whole table.
        g = GridSpec(N=n, r=3, L=1.0)
        full = bin_twiddles(g)
        half = bin_twiddles(g, 1, 3, out=np.empty((2, n + 1), dtype=complex))
        assert np.array_equal(half, full[1:3, :n + 1])

    @pytest.mark.parametrize("n", [1, 2, 13, 1024])
    @pytest.mark.parametrize("r", [1, 3, 32])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kept", [True, False])
    def test_rows_are_the_inverse_of_the_reference_fold(self, n, r, real,
                                                        kept):
        # Bit for bit: kept and one-shot rows both multiply bins first.
        g = GridSpec(N=n, r=r, L=1.0)
        rng = np.random.default_rng(100 * n + r)
        u = rng.standard_normal(n)
        if not real:
            u = u + 1j * rng.standard_normal(n)
        a = coefficients_from_samples(u)
        spectra = sine_fold_direct(a, bin_twiddles(g)[:, 1:n + 1],
                                   g.num_midpoints)
        rows = (np.fft.irfft(spectra[:, :n + 1], n=2 * n) if real
                else np.fft.ifft(spectra))
        work = (np.empty((2 * r, 2 * n + 2)) if real
                else np.empty((2 * r, 2 * n), dtype=complex))
        F = SampledIntegrand(a, g, bin_twiddles(g) if kept else None)
        F.pairs(0, r, work)
        even, odd = work[:r, :n], work[:r, 2 * n - 1:n - 1:-1]
        assert even.dtype == rows.dtype
        assert np.array_equal(even, rows[:, :n])
        assert np.array_equal(odd, rows[:, :n - 1:-1])

    def test_index_guard_before_any_allocation(self):
        # 2M = 2^53 leaves float64's exact integers; no length-M array exists.
        with pytest.raises(ParameterError, match="exact index"):
            SampledIntegrand(np.zeros(1), GridSpec(N=1, r=2**51, L=1.0))


def _shared_bin_examples(test):
    """Examples at r = 3, 7 and 32 (beyond the drawn r ≤ 7 at 32).

    Folded with stride r, mode N's bins N and 2rN − N both land on bin N of
    the rows' IFFTs of length 2N, at every r (for real u, the Nyquist bin
    of the half spectrum).
    """
    for n in (1, 2, 31, 101):
        for r in (3, 7, 32):
            for real in (False, True):
                test = example(n=n, r=r, seed=0, real=real)(test)
    return test


class TestDirectSumOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 300), r=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1), real=st.booleans())
    @example(n=1, r=1, seed=0, real=False)
    @example(n=293, r=7, seed=0, real=False)
    # At r = 1 the DST-III's bins m = N and M − m = N coincide (for real u,
    # the Nyquist bin of the half spectrum).
    @example(n=2, r=1, seed=0, real=False)
    @example(n=1024, r=1, seed=0, real=False)
    @example(n=2, r=1, seed=0, real=True)
    @example(n=1024, r=1, seed=0, real=True)
    @_shared_bin_examples
    def test_fast_route_equals_direct_sums(self, n, r, seed, real):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n)
        if not real:
            u = u + 1j * rng.standard_normal(n)
        g = GridSpec(N=n, r=r, L=1.0)
        a = coefficients_from_samples(u)
        a_direct = cosine_coefficients_direct(u)
        assert np.max(np.abs(a - a_direct)) <= 1e-13 * np.max(np.abs(a_direct))
        fast = derivatives_at_midpoints(a, g)
        direct = integrand_direct(a_direct, g.num_midpoints)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


class TestLongDoubleOracle:
    """The float64 sine series against the same series in long double.

    Both sum f from the same float64 a_k, so the deviation is the round-off
    of the DST-III alone.  |b_m| ≤ m²·max(|a_{m−1}|, |a_{m+1}|), and an FFT
    sum errs by O(eps) times the 2-norm of its input, so the bound is
    C·eps·N²·‖a‖_2.  Measured worst over these cases: C = 2.41 (white
    noise, complex, N = 4097, r = 2); erf stays below C = 0.31.
    """

    def test_oracle_equals_direct_sums(self):
        for real in (True, False):
            u = np.random.default_rng(3).standard_normal(9)
            if not real:
                u = u + 1j * np.random.default_rng(4).standard_normal(9)
            a = coefficients_from_samples(u)
            direct = integrand_direct(a, 54)
            ext = sine_series_long(a, 54).astype(complex)
            assert np.max(np.abs(ext - direct)) <= 1e-14 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 1024, 4097])
    @pytest.mark.parametrize("r", [1, 2, 7])
    def test_round_off_within_eps_n_squared(self, n, r):
        g = GridSpec(N=n, r=r, L=1.3)
        x = map_to_real(output_nodes(g), g.L)
        noise = np.random.default_rng(10 * n + r).standard_normal((2, n))
        for u in (ERF.u(x), ERF.u(x) + 1j * ERF.u(x - 0.5),
                  noise[0], noise[0] + 1j * noise[1]):
            a = coefficients_from_samples(u)
            f = derivatives_at_midpoints(a, g)
            err = np.max(np.abs(f - sine_series_long(a, g.num_midpoints)))
            bound = 16 * np.finfo(float).eps * n * n * np.linalg.norm(a)
            assert err <= bound


class TestIntegrandConstruction:
    def test_constant_profile_vanishes(self):
        g = GridSpec(N=6, r=2, L=1.0)
        F = f_from_analytic(lambda s: np.zeros_like(s),
                            lambda s: np.zeros_like(s), g)
        assert np.all(F.values == 0)

    def test_single_mode_formula(self):
        # u = e^{2is}: u_s = 2i e^{2is}, u_ss = -4 e^{2is}, so the integrand
        # is (-4 sin s + 4i cos s) e^{2is}.
        g = GridSpec(N=8, r=2, L=1.0)
        F = f_from_analytic(lambda s: 2j * np.exp(2j * s),
                            lambda s: -4.0 * np.exp(2j * s), g)
        s = midpoint_nodes(g)
        expected = (-4.0 * np.sin(s) + 4j * np.cos(s)) * np.exp(2j * s)
        assert F.values == pytest.approx(expected, rel=1e-14)

    def test_cosine_profile(self):
        g = GridSpec(N=8, r=1, L=1.0)
        F = f_from_analytic(lambda s: -np.sin(s), lambda s: -np.cos(s), g)
        s = midpoint_nodes(g)
        assert F.values == pytest.approx(-1.5 * np.sin(2 * s), rel=1e-13)

    @pytest.mark.parametrize("n", [2**7, 2**8])
    def test_sampled_route_matches_analytic_for_erf(self, n):
        # The trigonometric tail of the mapped profile reaches round-off
        # near k = 128; at N = 2^6 the truncation still sits at ~5e-9.
        g = GridSpec(N=n, r=4, L=2.1)
        s = output_nodes(g)
        u_nodes = ERF.u(2.1 / np.tan(s))
        spectral = f_from_samples(u_nodes, g)
        us, uss = mapped_derivatives(ERF, 2.1)
        analytic = f_from_analytic(us, uss, g)
        scale = np.max(np.abs(analytic.values))
        assert np.max(np.abs(spectral.values - analytic.values)) < 1e-12 * scale

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(SampleShapeError):
            f_from_samples(np.ones(5), GridSpec(N=6, r=1, L=1.0))

    def test_twiddles_of_another_grid_rejected(self):
        # A table of another (N, r) folded a wrong f without an error.  Only
        # the whole (r, 2N) table goes: rows 0..1 or slots 0..N are not it.
        g = GridSpec(N=16, r=4, L=1.0)
        for twiddles in (bin_twiddles(GridSpec(N=16, r=8, L=1.0)),
                         bin_twiddles(GridSpec(N=32, r=4, L=1.0)),
                         bin_twiddles(g, 0, 2), bin_twiddles(g)[:, :17]):
            with pytest.raises(ParameterError, match="not bin_twiddles"):
                f_from_samples(np.linspace(-1.0, 1.0, 16), g, twiddles)

    def test_real_input_stays_float(self):
        # Real u gives float64 at every stage; complex u stays complex128.
        # (Their values agree: TestDirectSumOracle draws both.)
        g = GridSpec(N=37, r=3, L=2.1)
        u = ERF.u(2.1 / np.tan(output_nodes(g)))
        assert coefficients_from_samples(u.tolist()).dtype == np.float64
        assert f_from_samples(u, g).values.dtype == np.float64
        assert f_from_samples(u.astype(complex), g).values.dtype == np.complex128
        us, uss = mapped_derivatives(ERF, 2.1)
        assert f_from_analytic(us, uss, g).values.dtype == np.float64


# rN, the half whose blocks are evaluated, runs below, onto and past a
# block boundary (and off its multiples).
_BLOCK_NS = (1, 2, 3, 7, 13, 41, 101, 1024, 4097)
_BLOCK_RS = (1, 2, 3, 4, 7, 32)


def _sin_rule(profile, L, s) -> np.ndarray:
    """f at every s by the chain rule through sin(s) and cos(s) of each s."""
    x = L / np.tan(s)
    sin2 = np.sin(s) ** 2
    us = profile.ux(x) * (-L / sin2)
    uss = profile.uxx(x) * (L / sin2) ** 2 + profile.ux(x) * (2.0 * x / sin2)
    return np.sin(s) * uss + 2.0 * np.cos(s) * us


class TestBlockwiseAnalytic:
    def test_grids_straddle_the_block(self):
        sizes = {r * n for n in _BLOCK_NS for r in _BLOCK_RS}
        block = spectral._ANALYTIC_BLOCK
        assert min(sizes) < block and block in sizes
        assert any(k > block and k % block for k in sizes)

    @pytest.mark.parametrize("n", _BLOCK_NS)
    @pytest.mark.parametrize("profile", [RATIONAL, ERF, GAUSSIAN],
                             ids=lambda p: p.name)
    def test_matches_whole_array_bitwise(self, profile, n):
        # The reference evaluates all 2rN midpoints at once, with the lower
        # half's sin and cos mirrored onto the upper half.
        us, uss = mapped_derivatives(profile, 1.3)
        for r in _BLOCK_RS:
            g = GridSpec(N=n, r=r, L=1.3)
            s = midpoint_nodes(g)
            sin, cos = np.sin(s[:r * n]), np.cos(s[:r * n])
            whole = (np.concatenate((sin, sin[::-1])) * uss(s)
                     + 2 * np.concatenate((cos, -cos[::-1])) * us(s))
            values = f_from_analytic(us, uss, g).values
            assert values.dtype == whole.dtype
            assert values.dtype == (np.complex128 if profile is RATIONAL
                                    else np.float64)
            assert np.array_equal(values, whole)

    @pytest.mark.parametrize("L", [0.4, 1.0, 2.1])
    @pytest.mark.parametrize("profile", [RATIONAL, ERF, GAUSSIAN],
                             ids=lambda p: p.name)
    def test_close_to_the_sin_rule(self, profile, L):
        # The tan-only chain rule and the mirrored sin and cos move f by
        # round-off only, also next to the poles: at rN = 2^20 the outer
        # midpoints lie 7.5e-7 from 0 and from π.
        g = GridSpec(N=2**18, r=4, L=L)
        s = midpoint_nodes(g)
        assert s[0] < 1e-6 and math.pi - s[-1] < 1e-6
        us, uss = mapped_derivatives(profile, L)
        new = f_from_analytic(us, uss, g).values
        old = np.concatenate([_sin_rule(profile, L, part)
                              for part in np.array_split(s, 64)])
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))

    @pytest.mark.parametrize("profile", [RATIONAL, ERF], ids=lambda p: p.name)
    def test_peak_memory_near_output(self, profile):
        # Putting f in midpoint order evaluates it in blocks.  Whole-array
        # evaluation peaked at 5.5x (rational) and 8.0x (erf) the output's
        # bytes: its derivative temporaries were 2rN long.
        g = GridSpec(N=2**16, r=1, L=1.0)
        F = f_from_analytic(*mapped_derivatives(profile, 1.0), g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            values = F.values
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * values.nbytes


class TestMappedDerivatives:
    @pytest.mark.parametrize("L", [0.4, 1.0, 2.1])
    @pytest.mark.parametrize("profile", [RATIONAL, ERF, GAUSSIAN],
                             ids=lambda p: p.name)
    def test_integrand_chain_rule(self, profile, L):
        # With x = L·cot s, sin·u_ss + 2cos·u_s = L²·u_xx(x)/sin³ s: the
        # u_x terms of the two cancel.  The bound is relative to the size
        # of those cancelling terms.
        us, uss = mapped_derivatives(profile, L)
        s = np.linspace(0.05, math.pi - 0.05, 401)
        first, second = np.sin(s) * uss(s), 2.0 * np.cos(s) * us(s)
        expected = L**2 * profile.uxx(L / np.tan(s)) / np.sin(s) ** 3
        scale = np.abs(first) + np.abs(second)
        assert np.all(np.abs(first + second - expected) <= 1e-14 * scale)

    @pytest.mark.parametrize("L", [0.7, 1.0, 2.1])
    @pytest.mark.parametrize("profile", [RATIONAL, ERF, GAUSSIAN],
                             ids=lambda p: p.name)
    def test_analytic_integrand_is_uxx_over_sin_cubed(self, profile, L):
        # The same identity on the midpoints, through the analytic route's
        # mirrored sin and cos: f needs u_xx alone.
        g = GridSpec(N=257, r=3, L=L)
        s = midpoint_nodes(g)
        f = f_from_analytic(*mapped_derivatives(profile, L), g).values
        expected = L**2 * profile.uxx(L / np.tan(s)) / np.sin(s) ** 3
        assert np.max(np.abs(f - expected)) <= 1e-13 * np.max(np.abs(f))

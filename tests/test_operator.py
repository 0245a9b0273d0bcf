import math
import re

import numpy as np
import pytest

from fraclap.errors import ParameterError, SampleShapeError
from fraclap.fastconv import _CALL_POINTS
from fraclap.grid import GridSpec, map_to_real, midpoint_nodes, output_nodes
from fraclap.operator import FracLapParams, FractionalLaplacian, prefactors
from fraclap.profiles import ERF, GAUSSIAN, RATIONAL, mapped_derivatives
from fraclap.quadrature import MidpointSamples
from fraclap.reference import exact_rational
from fraclap.spectral import (SampledIntegrand, bin_twiddles,
                              coefficients_from_samples, f_from_analytic,
                              f_from_samples)

from .oracles import c_alpha, sine_series_long, singular_integral_long


def _long_form_prefactor(alpha, L, s):
    """c_α |sin s|^{α-1} / (L^α α(1-α)): the unsimplified constant."""
    return c_alpha(alpha) * np.abs(np.sin(s)) ** (alpha - 1.0) / (
        L**alpha * alpha * (1.0 - alpha)
    )


class TestParams:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5, 1.0, 1.0 + 5e-9])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError):
            FracLapParams(alpha=alpha, grid=GridSpec(N=4, r=1, L=1.0))

    @pytest.mark.parametrize("alpha", [True, False, np.bool_(True)])
    def test_bool_alpha_rejected(self, alpha):
        # True is 1 and would be misreported as the Hilbert-transform case.
        with pytest.raises(ParameterError, match="bool"):
            FracLapParams(alpha=alpha, grid=GridSpec(N=4, r=1, L=1.0))

    @pytest.mark.parametrize("alpha, L", [
        (1.3, 1e-250),  # L^α underflows to 0: the prefactors were inf
        (1.3, 1e300),  # L^α overflows: Python raised OverflowError
        (1.9, 1e-164),  # subnormal constant whose reciprocal overflows
    ])
    def test_prefactor_constant_out_of_range_rejected(self, alpha, L):
        with pytest.raises(ParameterError,
                           match=re.escape(f"alpha = {alpha} with L = {L!r}")):
            FracLapParams(alpha=alpha, grid=GridSpec(N=8, r=1, L=L))

    @pytest.mark.parametrize("alpha, L", [(1.3, 1e-100), (1.9, 1e-160),
                                          (0.5, 1e300)])
    def test_extreme_but_representable_L_accepted(self, alpha, L):
        p = FracLapParams(alpha=alpha, grid=GridSpec(N=8, r=1, L=L))
        assert np.all(np.isfinite(prefactors(p)))

    def test_kernel_exponents(self):
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=4, r=1, L=1.0))
        assert p.singular_params.beta == 1.3
        assert p.singular_params.gamma == pytest.approx(-0.3)


class TestGammaBackend:
    @pytest.mark.parametrize("z,value", [
        # 20-digit reference values of the gamma function.
        (0.1, 9.5135076986687318363),
        (0.5, 1.7724538509055160273),
        (0.7, 1.2980553326475577857),
        (1.0, 1.0),
        (1.5, 0.88622692545275801365),
        (2.0, 1.0),
    ])
    def test_gamma_accuracy_on_prefactor_range(self, z, value):
        # The prefactor leans on gamma over (0, 3); the backing
        # implementation must not contribute to the error budget.
        assert math.gamma(z) == pytest.approx(value, rel=1e-14)


class TestPrefactor:
    def test_center_node_value(self):
        # At s = pi/2 the sine factor is exactly 1.
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=1, r=1, L=1.0))
        expected = 1.0 / (2.0 * math.gamma(0.7) * math.cos(0.65 * math.pi))
        assert prefactors(p)[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.3, 1.99])
    def test_sine_factor_unity_at_center(self, alpha):
        p = FracLapParams(alpha=alpha, grid=GridSpec(N=1, r=1, L=1.0))
        flat = 1.0 / (2.0 * math.gamma(2 - alpha) * math.cos(math.pi * alpha / 2))
        assert prefactors(p)[0] == pytest.approx(flat, rel=1e-14)

    @pytest.mark.parametrize("alpha,L", [(0.5, 2.0), (1.3, 1.0), (1.7, 0.4)])
    def test_simplified_equals_long_form(self, alpha, L):
        # The compact constant must reproduce the defining one; they are
        # linked by the reflection and duplication formulas of gamma.
        g = GridSpec(N=16, r=1, L=L)
        p = FracLapParams(alpha=alpha, grid=g)
        s = output_nodes(g)
        assert prefactors(p) == pytest.approx(
            _long_form_prefactor(alpha, L, s), rel=1e-13
        )

    def test_index_range_checked(self):
        # One prefactor per output node: indices 0..N-1 and no more.
        p = FracLapParams(alpha=0.5, grid=GridSpec(N=4, r=1, L=1.0))
        assert prefactors(p).shape == (4,)
        with pytest.raises(IndexError):
            prefactors(p)[4]


class TestApply:
    def test_constant_profile_maps_to_zero(self):
        g = GridSpec(N=8, r=2, L=1.0)
        p = FracLapParams(alpha=0.7, grid=g)
        F = MidpointSamples(values=np.zeros(g.num_midpoints), grid=g)
        assert np.all(FractionalLaplacian(p).apply(F) == 0)

    def test_linearity(self):
        g = GridSpec(N=8, r=2, L=1.0)
        p = FracLapParams(alpha=1.3, grid=g)
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(g.num_midpoints) + 1j * rng.standard_normal(
            g.num_midpoints
        )
        v2 = rng.standard_normal(g.num_midpoints) + 1j * rng.standard_normal(
            g.num_midpoints
        )
        a, b = 2.0 - 1j, -0.7j
        op = FractionalLaplacian(p)
        combined = op.apply(MidpointSamples(values=a * v1 + b * v2, grid=g))
        separate = a * op.apply(MidpointSamples(values=v1, grid=g)) \
            + b * op.apply(MidpointSamples(values=v2, grid=g))
        scale = np.max(np.abs(separate))
        assert np.max(np.abs(combined - separate)) < 1e-12 * scale

    def test_real_profile_gives_real_output(self):
        g = GridSpec(N=64, r=2, L=2.1)
        p = FracLapParams(alpha=0.9, grid=g)
        us, uss = mapped_derivatives(ERF, g.L)
        out = FractionalLaplacian(p).apply(f_from_analytic(us, uss, g))
        assert np.max(np.abs(out.imag)) < 1e-12 * np.max(np.abs(out))

    @pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (101, 2), (1024, 32),
                                      (4097, 7)])
    def test_real_samples_stay_real(self, n, r):
        # Real u runs in real arithmetic and returns float64.  The
        # complex-cast route rounds differently in its FFTs and carries
        # round-off imaginary parts, which the integrand's k² weights lift:
        # on erf the two agree to 9.9e-15 relative at worst.
        g = GridSpec(N=n, r=r, L=2.1)
        op = FractionalLaplacian(FracLapParams(alpha=0.9, grid=g))
        u = ERF.u(map_to_real(output_nodes(g), g.L))
        real = op.apply_to_samples(u)
        cast = op.apply_to_samples(u.astype(complex))
        assert real.dtype == np.float64
        assert np.max(np.abs(real - cast.real)) <= 1e-13 * np.max(np.abs(cast))

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.3, 1.99])
    def test_real_path_round_off_on_white_noise(self, alpha):
        # White noise puts weight on every mode, and the integrand weights
        # mode k by k², so the two routes' round-off grows like N^{2−α}
        # relative to the output.  Measured worst constant: 3.6 (α = 1.99,
        # N = 31, r = 1); 2.5 at α = 0.3.  N = 1 gives zero output.
        eps = np.finfo(float).eps
        for n in (2, 3, 7, 31, 101, 1024, 4097):
            for r in (1, 2, 7, 32):
                if n * r > 40000:
                    continue
                g = GridSpec(N=n, r=r, L=1.3)
                op = FractionalLaplacian(FracLapParams(alpha=alpha, grid=g))
                u = np.random.default_rng(n * r).standard_normal(n)
                real = op.apply_to_samples(u)
                cast = op.apply_to_samples(u.astype(complex))
                bound = 16 * eps * n ** (2 - alpha) * np.max(np.abs(real))
                assert np.max(np.abs(real - cast)) <= bound, (n, r)

    def test_rational_profile_matches_exact(self):
        g = GridSpec(N=64, r=8, L=1.0)
        p = FracLapParams(alpha=1.3, grid=g)
        us, uss = mapped_derivatives(RATIONAL, g.L)
        out = FractionalLaplacian(p).apply(f_from_analytic(us, uss, g))
        exact = exact_rational(1.3, output_nodes(g))
        assert np.max(np.abs(out - exact)) < 1e-4

    def test_refinement_convergence_against_fine_reference(self):
        # Fixed N: quadrature error drops ~4x per doubling of r, measured
        # against a much finer run of the same construction.
        alpha, n = 0.7, 32
        results = {}
        for r in (2, 4, 32):
            g = GridSpec(N=n, r=r, L=1.0)
            p = FracLapParams(alpha=alpha, grid=g)
            us, uss = mapped_derivatives(RATIONAL, g.L)
            results[r] = FractionalLaplacian(p).apply(f_from_analytic(us, uss, g))
        e2 = np.max(np.abs(results[2] - results[32]))
        e4 = np.max(np.abs(results[4] - results[32]))
        assert e2 / e4 == pytest.approx(4.0, rel=0.2)

    def test_grid_mismatch_rejected(self):
        g1 = GridSpec(N=8, r=1, L=1.0)
        g2 = GridSpec(N=8, r=2, L=1.0)
        op = FractionalLaplacian(FracLapParams(alpha=0.5, grid=g1))
        F = MidpointSamples(values=np.zeros(g2.num_midpoints), grid=g2)
        with pytest.raises(ParameterError):
            op.apply(F)

    def test_sampled_route_agrees_with_analytic_route(self):
        g = GridSpec(N=256, r=2, L=2.1)
        p = FracLapParams(alpha=0.9, grid=g)
        op = FractionalLaplacian(p)
        s = output_nodes(g)
        from_samples = op.apply_to_samples(ERF.u(g.L / np.tan(s)))
        us, uss = mapped_derivatives(ERF, g.L)
        from_analytic = op.apply(f_from_analytic(us, uss, g))
        scale = np.max(np.abs(from_analytic))
        assert np.max(np.abs(from_samples - from_analytic)) < 1e-11 * scale


class TestAnalyticRoute:
    @pytest.mark.parametrize("n", [1, 2, 7, 101, 4097])
    @pytest.mark.parametrize("r", [1, 2, 3, 7])
    def test_streamed_equals_midpoint_order_bitwise(self, n, r):
        # apply writes an analytic f straight into the convolution's row
        # pairs; F.values puts the same f in midpoint order.  Odd N and odd
        # r reach the row that straddles rN, where a pair's members below
        # rN pass from its even row to its odd row.
        for L in (1.0, 2.1):
            g = GridSpec(N=n, r=r, L=L)
            p = FracLapParams(alpha=1.3, grid=g)
            for profile in (RATIONAL, ERF, GAUSSIAN):
                F = f_from_analytic(*mapped_derivatives(profile, L), g)
                samples = MidpointSamples(values=F.values, grid=g)
                for keep in (True, False):
                    op = FractionalLaplacian(p, cache_kernels=keep)
                    got = op.apply(F)
                    want = op.apply(samples)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)

    def test_one_shot_apply_holds_no_integrand(self):
        # At N = 2^16, r = 1 the batch buffer alone is twice the bytes of
        # the 2rN complex f.  Streaming f, the apply peaked at 3.25x those
        # bytes; holding f in midpoint order, at 4.25x.
        import tracemalloc

        g = GridSpec(N=2**16, r=1, L=1.0)
        op = FractionalLaplacian(FracLapParams(alpha=1.3, grid=g),
                                 cache_kernels=False)
        us, uss = mapped_derivatives(RATIONAL, g.L)
        op.apply(f_from_analytic(us, uss, g))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            op.apply(f_from_analytic(us, uss, g))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * g.num_midpoints * 16


class TestSampledRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 31, 41, 101, 1024])
    @pytest.mark.parametrize("r", [1, 2, 3, 7, 32])
    def test_equals_apply_of_f_from_samples(self, n, r):
        # apply_to_samples sums the integrand's rows straight into the
        # convolution; the reference takes f in midpoint order, bit for bit
        # the same.  Kept and one-shot plans, real and complex u; a later
        # call leaves an earlier result untouched, so no output shares
        # memory with the plan.  At N = 13 and 41, m = 2N − 1 and the real
        # scratch rows' 2N+2 floats set the batch width.
        g = GridSpec(N=n, r=r, L=1.3)
        rng = np.random.default_rng(100 * n + r)
        for keep in (True, False):
            op = FractionalLaplacian(FracLapParams(alpha=0.7, grid=g),
                                     cache_kernels=keep)
            results = []
            for real in (False, True, False):
                u = rng.standard_normal(n)
                if not real:
                    u = u + 1j * rng.standard_normal(n)
                got = op.apply_to_samples(u)
                ref = op.apply(MidpointSamples(
                    values=f_from_samples(u, g).values, grid=g))
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)
                results.append((got, got.copy()))
            for got, copy in results:
                assert np.array_equal(got, copy)

    @pytest.mark.parametrize("count", [5, 7])
    def test_wrong_sample_count_rejected_before_the_plan(self, count):
        # The integrand rejects the count before the fold twiddles and the
        # convolution's plan are built.
        op = FractionalLaplacian(
            FracLapParams(alpha=0.7, grid=GridSpec(N=6, r=2, L=1.0)))
        with pytest.raises(SampleShapeError, match="expected 6 node samples"):
            op.apply_to_samples(np.ones(count))
        assert op._conv._plan is None
        assert op._twiddles is None

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 31, 41, 101, 1024, 4097])
    @pytest.mark.parametrize("r", [1, 2, 3, 7, 32])
    def test_kept_and_one_shot_agree_bitwise(self, n, r):
        # A kept operator folds with its (r, 2N) rows of bin multipliers
        # from bin_twiddles, a one-shot one computes each batch's twiddles
        # in place in its bins: the same numbers, cold and warm.
        g = GridSpec(N=n, r=r, L=1.3)
        p = FracLapParams(alpha=0.7, grid=g)
        rng = np.random.default_rng(10 * n + r)
        kept = FractionalLaplacian(p)
        for u in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            once = FractionalLaplacian(p, cache_kernels=False)
            ref = once.apply_to_samples(u)
            for _ in range(2):
                got = kept.apply_to_samples(u)
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n, r", [(1, 1), (13, 3), (1024, 32)])
    def test_kept_twiddles_follow_the_first_call(self, n, r, monkeypatch):
        # The first call computes its twiddles in its bins and only then
        # keeps the table, which the second call folds with: both calls
        # agree with a one-shot operator to the bit.
        from fraclap import operator

        passed = []
        build = operator.f_from_samples

        def record(u_nodes, g, twiddles=None):
            passed.append(twiddles)
            return build(u_nodes, g, twiddles)

        monkeypatch.setattr(operator, "f_from_samples", record)
        g = GridSpec(N=n, r=r, L=1.3)
        p = FracLapParams(alpha=0.7, grid=g)
        rng = np.random.default_rng(n + r)
        for u in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            kept = FractionalLaplacian(p)
            first = kept.apply_to_samples(u)
            second = kept.apply_to_samples(u)
            once = FractionalLaplacian(p, cache_kernels=False)
            ref = once.apply_to_samples(u)
            assert passed[-3] is None and passed[-1] is None
            assert np.array_equal(passed[-2], bin_twiddles(g))
            for got in (first, second):
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [1, 2, 13, 1024])
    @pytest.mark.parametrize("r", [1, 3, 32])
    def test_kept_twiddles_are_full_rows_of_bin_multipliers(self, n, r):
        # Slot k of a kept row multiplies bin k: t_k for 1 ≤ k ≤ N,
        # conj t_m at 2N − m, and conj t_N, bin N's second term, at slot 0.
        g = GridSpec(N=n, r=r, L=1.3)
        op = FractionalLaplacian(FracLapParams(alpha=0.7, grid=g))
        op.apply_to_samples(np.ones(n))
        t = bin_twiddles(g)[:, 1:n + 1]
        rows = op._twiddles
        assert rows.shape == (r, 2 * n)
        assert np.array_equal(rows[:, 1:n + 1], t)
        assert np.array_equal(rows[:, 0], t[:, -1].conj())
        assert np.array_equal(rows[:, n + 1:], t[:, :n - 1][:, ::-1].conj())

    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 13, 1024, 65537)
                                      for r in (1, 3, 32) if r * n <= 2**17])
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("real", [True, False])
    def test_lent_pairs_fit_one_transform_call(self, n, r, cache, real,
                                               monkeypatch):
        # SampledIntegrand.pairs sums all the rows it is lent in one
        # pocketfft call, so convolve lends one pair or at most
        # _CALL_POINTS points of spectra: N+1 complex bins a real row, 2N
        # a complex one.
        lent = []
        pairs = SampledIntegrand.pairs

        def record(self, c0, c1, work):
            lent.append((c0, c1))
            return pairs(self, c0, c1, work)

        monkeypatch.setattr(SampledIntegrand, "pairs", record)
        g = GridSpec(N=n, r=r, L=1.3)
        op = FractionalLaplacian(FracLapParams(alpha=0.7, grid=g),
                                 cache_kernels=cache)
        u = np.linspace(-1.0, 1.0, n)
        op.apply_to_samples(u if real else u + 0.5j * u)
        assert [c0 for c0, _ in lent] == [0] + [c1 for _, c1 in lent[:-1]]
        assert lent[-1][1] == r
        width = n + 1 if real else 2 * n
        for c0, c1 in lent:
            assert c1 - c0 == 1 or (c1 - c0) * width <= _CALL_POINTS

    @pytest.mark.parametrize("n, r", [(1024, 32), (65537, 1)])
    def test_kept_plan_bytes(self, n, r):
        # A kept plan holds the (r, 4N) float weights, the (2, r, m) complex
        # full spectra and the (r, 2N) complex twiddle rows, and nothing
        # else; N = 65537 has rows of m = 131220 points, split as grids.  A
        # one-shot call keeps nothing.  The sizes pin the layout, not a
        # bound.
        g = GridSpec(N=n, r=r, L=200.0)
        p = FracLapParams(alpha=1.99, grid=g)
        u = np.random.default_rng(n).standard_normal(n) + 0j
        kept = FractionalLaplacian(p)
        kept.apply_to_samples(u)
        m = kept._conv.fft_length // (2 * r)
        weights, table = kept._conv._plan
        for array, nbytes in ((weights, r * 4 * n * 8),
                              (table, 2 * r * m * 16),
                              (kept._twiddles, r * 2 * n * 16)):
            assert array.nbytes == nbytes
            assert array.base is None or array.base.nbytes == nbytes
        once = FractionalLaplacian(p, cache_kernels=False)
        once.apply_to_samples(u)
        assert once._conv._plan is None and once._twiddles is None

    @pytest.mark.parametrize("dtype, bound", [(complex, 1.0), (float, 2.0)])
    def test_warm_call_allocates_little(self, dtype, bound):
        # A kept plan keeps its twiddles, and each call lends one batch
        # buffer of row pairs, so a warm call allocates only that and arrays
        # of length O(N): bound times the bytes of the 2rN midpoint samples
        # of that dtype.
        import tracemalloc

        g = GridSpec(N=1024, r=32, L=200.0)
        op = FractionalLaplacian(FracLapParams(alpha=1.99, grid=g))
        u = np.random.default_rng(5).standard_normal(g.N).astype(dtype)
        if dtype is complex:
            u.imag = np.random.default_rng(6).standard_normal(g.N)
        op.apply_to_samples(u)
        tracemalloc.start()
        try:
            op.apply_to_samples(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.num_midpoints * np.dtype(dtype).itemsize

    @staticmethod
    def _one_shot_rise(n, r, scale=1.0, cli=False):
        """Peak rise of one one-shot call on scale·erf, in units of 16rN
        bytes, the complex f a midpoint-order integrand would hold; with
        ``cli``, of the CLI's call, ``apply(f_from_samples(u, g))``."""
        import tracemalloc

        g = GridSpec(N=n, r=r, L=2.1)
        op = FractionalLaplacian(FracLapParams(alpha=0.9, grid=g),
                                 cache_kernels=False)
        u = ERF.u(map_to_real(output_nodes(g), g.L)) * scale

        def call():
            if cli:
                return op.apply(f_from_samples(u, g))
            return op.apply_to_samples(u)

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * g.r * g.N)

    # Each rise is taken on apply_to_samples and on the CLI's call, one
    # route: putting f in midpoint order first rose 5.50x, 2.27x and 8.50x.
    @pytest.mark.parametrize("n, r, bound", [(2**16, 1, 6.0), (2**18, 8, 2.0)])
    def test_one_shot_rise_on_erf(self, n, r, bound):
        # Measured 5.00x at r = 1 and 1.33x at N = 2^18, r = 8, where each
        # batch of pairs builds its own kernel rows (6.50x and 4.06x with
        # the whole two-row-per-pair table).
        for cli in (False, True):
            assert self._one_shot_rise(n, r, cli=cli) <= bound

    def test_one_shot_rise_on_complex_erf(self):
        # Complex u keeps one N-vector of bins per call.  Measured 7.50x.
        for cli in (False, True):
            assert self._one_shot_rise(2**16, 1, 1 + 0.5j, cli) <= 8.0


class TestSampledRouteLongDouble:
    """``apply_to_samples`` end to end against the same route in long double.

    The oracle sums the sine series of the float64 a_k in long double
    (:func:`tests.oracles.sine_series_long`), applies the quadrature as its
    long-double matrix (:func:`tests.oracles.singular_integral_long`) and
    multiplies by the float64 prefactor, so the deviation is the round-off
    of the integrand, the convolution and the prefactor together.  f is
    bounded by Σ|b_m| ≤ N²·‖a‖_1, and the quadrature weights are positive,
    so the bound is C·eps·N²·‖a‖_1·|prefactor_j|·Q_j with Q_j the
    quadrature of f ≡ 1.  Measured worst over these cases: C = 0.91 (white
    noise, real, N = 64, r = 4, α = 1.9); erf stays below C = 0.55.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 64])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_round_off_within_eps_n_squared(self, n, r):
        g = GridSpec(N=n, r=r, L=1.3)
        x = map_to_real(output_nodes(g), g.L)
        noise = np.random.default_rng(10 * n + r).standard_normal((2, n))
        for alpha in (0.3, 1.3, 1.9):
            p = FracLapParams(alpha=alpha, grid=g)
            beta, gamma = alpha, 1.0 - alpha
            pref = prefactors(p).astype(np.longdouble)
            ones = singular_integral_long(np.ones(g.num_midpoints), n, r,
                                          beta, gamma)
            scale = np.finfo(float).eps * n * n * np.abs(pref * ones.real)
            for u in (ERF.u(x), ERF.u(x) + 1j * ERF.u(x - 0.5),
                      noise[0], noise[0] + 1j * noise[1]):
                a = coefficients_from_samples(u)
                ref = pref * singular_integral_long(
                    sine_series_long(a, g.num_midpoints), n, r, beta, gamma)
                for kept in (True, False):
                    op = FractionalLaplacian(p, cache_kernels=kept)
                    for _ in range(2):  # cold, then warm
                        err = np.abs(op.apply_to_samples(u) - ref)
                        assert np.all(err <= 4 * scale * np.sum(np.abs(a)))

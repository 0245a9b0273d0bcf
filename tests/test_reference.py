import math
import warnings

import mpmath
import numpy as np
import pytest

from fraclap import reference
from fraclap.errors import ParameterError, SampleShapeError
from fraclap.grid import GridSpec, map_to_real, output_nodes
from fraclap.profiles import ERF, RATIONAL
from fraclap.reference import (error_norms, exact_erf, exact_rational,
                               exact_rational_x, kummer_1f1)

from .oracles import fraclap_quad


class TestExactRational:
    def test_center_alpha_one(self):
        assert exact_rational(1.0, math.pi / 2) == pytest.approx(-2.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.3, 1.99])
    def test_center_general_alpha(self, alpha):
        assert exact_rational(alpha, math.pi / 2) == pytest.approx(
            -2.0 * math.gamma(1.0 + alpha)
        )

    def test_profile_is_single_mode_under_unit_map(self):
        # (ix-1)/(ix+1) with x = cot(s) equals e^{2is}.
        rng = np.random.default_rng(11)
        s = rng.uniform(0.01, math.pi - 0.01, 100)
        x = map_to_real(s, 1.0)
        lhs = (1j * x - 1.0) / (1j * x + 1.0)
        assert np.max(np.abs(lhs - np.exp(2j * s))) < 1e-13

    def test_domain_checked(self):
        with pytest.raises(ParameterError):
            exact_rational(1.3, 0.0)
        with pytest.raises(ParameterError):
            exact_rational(2.3, 1.0)

    @pytest.mark.parametrize("s", [math.nan, np.array([1.0, math.nan])])
    def test_nan_rejected(self, s):
        # NaN is not inside (0, pi) either.
        with pytest.raises(ParameterError):
            exact_rational(1.3, s)

    def test_against_integration_oracle(self):
        val = exact_rational(1.3, math.pi / 4)
        oracle = fraclap_quad(RATIONAL.ux, 1.3, 1.0)
        assert val == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 1.3, 1.99])
    def test_s_form_is_the_x_form_at_cot_s(self, alpha):
        s = output_nodes(GridSpec(N=37, r=3, L=1.0))
        x = map_to_real(s, 1.0)
        assert np.array_equal(exact_rational(alpha, s),
                              exact_rational_x(alpha, x))
        assert exact_rational(alpha, s[5]) == exact_rational_x(alpha, x[5])

    @pytest.mark.parametrize("alpha", [0.3, 1.3, 1.99])
    def test_x_form_against_mpmath(self, alpha):
        # Through s = arctan2(1, x) and back, the nodes of L = 1e6 lost up to
        # 5.7e-8 relative, and x below about −4.5e15 rounded s to π.  The
        # power (1+α)·log|ix+1| ≈ 120 at 3e17 spreads eps to about 1e-14.
        x = np.array([-4e16, -4.6e15, -1e6, -2.1, 0.0, 0.3, 1e6, 3e17])
        got = exact_rational_x(alpha, x)
        assert RATIONAL.exact(alpha, x).tobytes() == got.tobytes()
        for xi, value in zip(x, got):
            ref = complex(-2 * mpmath.gamma(1 + alpha)
                          / (1j * mpmath.mpf(float(xi)) + 1) ** (1 + alpha))
            assert abs(value - ref) <= 1e-13 * abs(ref)
            assert abs(exact_rational_x(alpha, float(xi)) - ref) <= 1e-13 * abs(ref)


class TestExactErf:
    def test_odd_symmetry(self):
        assert exact_erf(0.9, 0.0) == 0.0
        for x in (0.3, 1.7, 12.0):
            assert exact_erf(0.9, -x) == pytest.approx(-exact_erf(0.9, x))

    def test_against_integration_oracle(self):
        val = exact_erf(0.9, 1.0)
        oracle = fraclap_quad(ERF.ux, 0.9, 1.0)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_large_argument_against_mpmath(self):
        alpha = 0.9
        for x in (5.0, 30.0, 500.0, 2e5):
            hi = float(
                2 ** (1 + alpha) / mpmath.pi * mpmath.gamma((1 + alpha) / 2)
                * x * mpmath.hyp1f1((1 + alpha) / 2, mpmath.mpf(3) / 2, -x * x)
            )
            assert exact_erf(alpha, x) == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.99])
    def test_infinite_argument_gives_the_limit(self, alpha):
        # x·1F1((1+α)/2; 3/2; −x²) decays like |x|^{−α}, so the limit is 0,
        # reached without a warning; finite entries keep their bits.
        x = np.array([-np.inf, -2e5, 0.7, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exact_erf(alpha, x)
            assert exact_erf(alpha, np.inf) == 0.0
            assert exact_erf(alpha, -np.inf) == 0.0
        assert got[0] == 0.0 and got[3] == 0.0
        assert np.array_equal(got[1:3], exact_erf(alpha, x[1:3]))

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_alpha_outside_range_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            exact_erf(alpha, 1.0)

    @pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
    def test_nan_argument_rejected(self, x):
        with pytest.raises(ParameterError):
            exact_erf(0.9, x)


class TestKummer:
    def test_zero_argument(self):
        assert kummer_1f1(0.95, 1.5, 0.0) == pytest.approx(1.0)

    def test_equal_parameters_give_exponential(self):
        for z in (-0.5, -10.0, -200.0):
            assert kummer_1f1(1.5, 1.5, z) == pytest.approx(math.exp(z), rel=1e-13)

    def test_half_parameter_is_scaled_erf(self):
        # 1F1(1/2; 3/2; -x^2) = sqrt(pi) erf(x) / (2x): terminating case of
        # the asymptotic branch as well.
        for x in (0.7, 4.0, 40.0):
            expected = math.sqrt(math.pi) * math.erf(x) / (2 * x)
            assert kummer_1f1(0.5, 1.5, -x * x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [0.55, 0.95, 1.45])
    def test_dense_scan_against_mpmath(self, a):
        # Covers both regimes and the crossover at |z| = 120.
        zs = -np.concatenate([
            np.linspace(0.01, 119.9, 50),
            np.linspace(120.1, 2000.0, 40),
            np.geomspace(2e3, 1e12, 25),
        ])
        ours = kummer_1f1(a, 1.5, zs)
        theirs = np.array(
            [float(mpmath.hyp1f1(a, mpmath.mpf(3) / 2, mpmath.mpf(z))) for z in zs]
        )
        assert np.max(np.abs(ours - theirs) / np.abs(theirs)) < 1e-10

    @pytest.mark.parametrize("a", [0.55, 0.95, 1.45])
    def test_vector_equals_scalar_calls_bit_for_bit(self, a):
        # Each entry of the reflected series stops at its own convergence,
        # so an entry's bits must not depend on its neighbours.
        rng = np.random.default_rng(18)
        z = np.concatenate([
            -rng.uniform(0.0, 2000.0, 300),
            -rng.uniform(0.0, 130.0, 300),
            [0.0, -120.0, np.nextafter(-120.0, -np.inf),
             np.nextafter(-120.0, 0.0), -119.5, -120.5, -1e-300],
        ])
        z = rng.permutation(np.concatenate([z, z[:50]]))  # with duplicates
        alone = np.array([kummer_1f1(a, 1.5, zi) for zi in z])
        ours = kummer_1f1(a, 1.5, z)
        assert np.array_equal(ours.view(np.uint64), alone.view(np.uint64))

    def test_permuted_input_gives_permuted_output(self):
        rng = np.random.default_rng(7)
        z = -rng.uniform(0.0, 150.0, 4000)
        perm = rng.permutation(len(z))
        ours = kummer_1f1(0.95, 1.5, z)
        assert np.array_equal(kummer_1f1(0.95, 1.5, z[perm]).view(np.uint64),
                              ours[perm].view(np.uint64))

    def test_series_term_limit_raises(self, monkeypatch):
        monkeypatch.setattr(reference, "_MAX_TERMS", 5)
        with pytest.raises(ArithmeticError):
            kummer_1f1(0.95, 1.5, np.array([-0.5, -3.0, -50.0]))

    def test_consistency_with_erf_oracle_at_two(self):
        # a = 0.95, b = 1.5, z = -4 enters exact_erf at x = 2, alpha = 0.9.
        oracle = fraclap_quad(ERF.ux, 0.9, 2.0)
        prefac = 2 ** 1.9 / math.pi * math.gamma(0.95) * 2.0
        assert kummer_1f1(0.95, 1.5, -4.0) == pytest.approx(
            oracle / prefac, abs=1e-8
        )

    def test_positive_argument_rejected(self):
        with pytest.raises(ParameterError):
            kummer_1f1(0.95, 1.5, 1.0)

    @pytest.mark.parametrize("a", [0.95, 1.5])
    @pytest.mark.parametrize("z", [math.nan, np.array([-1.0, math.nan]),
                                   np.array([-200.0, math.nan])])
    def test_nan_argument_rejected(self, a, z):
        # Rejected up front, in either regime and for a = b, instead of
        # running the asymptotic expansion to its term limit.
        with pytest.raises(ParameterError):
            kummer_1f1(a, 1.5, z)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            kummer_1f1(1.5, 0.95, -1.0)


class TestErfProfile:
    @pytest.mark.parametrize("x", [
        np.array(-0.0),
        np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 5e-324, 0.5, -3.0, 30.0]),
        np.linspace(-6.0, 6.0, 12).reshape(3, 4).T,  # 2-D, not contiguous
        # The cli-erf benchmark's nodes (N = 2^16, L = 2.1) and special values.
        np.concatenate([map_to_real(output_nodes(GridSpec(N=2**16, r=1, L=2.1)),
                                    2.1),
                        [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]]),
    ])
    def test_u_is_math_erf_bit_for_bit(self, x):
        u = ERF.u(x)
        expected = np.array([math.erf(t) for t in x.ravel()]).reshape(x.shape)
        assert u.dtype == np.float64 and u.shape == x.shape
        assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


class TestErrorNorms:
    def test_identical_vectors(self):
        rep = error_norms(np.ones(5), np.ones(5))
        assert rep.l2 == 0.0 and rep.linf == 0.0 and rep.N == 5

    def test_single_entry(self):
        rep = error_norms(np.array([4.0]), np.array([1.0]))
        assert rep.l2 == pytest.approx(3.0) and rep.linf == pytest.approx(3.0)

    def test_normalization(self):
        rep = error_norms(np.array([1.0, 1.0]), np.zeros(2))
        assert rep.l2 == pytest.approx(1.0) and rep.linf == pytest.approx(1.0)

    def test_l2_never_exceeds_linf(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        b = rng.standard_normal(40)
        rep = error_norms(a, b, r=3, alpha=0.5)
        assert rep.l2 <= rep.linf and rep.r == 3 and rep.alpha == 0.5

    def test_length_mismatch(self):
        with pytest.raises(SampleShapeError):
            error_norms(np.ones(3), np.ones(4))

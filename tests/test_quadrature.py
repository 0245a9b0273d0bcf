import math

import mpmath
import numpy as np
import pytest

from fraclap.errors import ParameterError, SampleShapeError
from fraclap.grid import GridSpec, midpoint_nodes, output_nodes
from fraclap.operator import prefactors, FracLapParams
from fraclap.quadrature import (MidpointSamples, SingularParams,
                                modified_midpoint, signed_power_difference,
                                singular_integral_direct)
from fraclap.reference import exact_rational

from .oracles import fitted_order


def _midpoints(a, b, m):
    return a + (b - a) / m * (np.arange(m) + 0.5)


class TestSingularParams:
    def test_valid(self):
        SingularParams(beta=1.3, gamma=-0.3)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (-0.5, 0.0), (1.0, -1.0),
                                            (np.inf, 0.5), (1.0, np.inf),
                                            (np.nan, 0.5)])
    def test_invalid(self, beta, gamma):
        with pytest.raises(ParameterError):
            SingularParams(beta=beta, gamma=gamma)

    @pytest.mark.parametrize("beta,gamma", [(True, 0.5), (1.0, False),
                                            (np.bool_(True), 0.5)])
    def test_bool_exponents_rejected(self, beta, gamma):
        with pytest.raises(ParameterError, match="bool"):
            SingularParams(beta=beta, gamma=gamma)


class TestMidpointSamples:
    def test_length_checked(self):
        g = GridSpec(N=4, r=2, L=1.0)
        with pytest.raises(SampleShapeError):
            MidpointSamples(values=np.zeros(15), grid=g)


class TestModifiedMidpoint:
    @pytest.mark.parametrize("beta", [-0.5, 0.5, 1.3, 2.0])
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_constant_integrand_exact(self, beta, m):
        # The rule integrates the singular factor exactly, so f = 1
        # telescopes to the closed-form integral regardless of m.
        out = modified_midpoint(np.ones(m), 0.0, 1.0, beta)
        assert out == pytest.approx(1.0 / (beta + 1.0), rel=1e-14)

    def test_constant_integrand_exact_offset_interval(self):
        a, b, beta = 0.3, 2.0, -1.7
        exact = (b ** (beta + 1) - a ** (beta + 1)) / (beta + 1)
        out = modified_midpoint(np.ones(50), a, b, beta)
        assert out == pytest.approx(exact, rel=1e-14)

    def test_halving_rate_with_nonzero_slope_at_origin(self):
        # f(x) = x with beta in (-1,0) converges at order 2 + beta.
        exact = 2.0 / 3.0
        errs = [
            abs(modified_midpoint(_midpoints(0, 1, m), 0.0, 1.0, -0.5) - exact)
            for m in (10, 20)
        ]
        assert errs[0] / errs[1] == pytest.approx(2**1.5, rel=0.15)

    def test_halving_rate_smooth_case(self):
        exact = 2.0 / 7.0
        errs = [
            abs(modified_midpoint(_midpoints(0, 1, m) ** 2, 0.0, 1.0, 0.5) - exact)
            for m in (32, 64)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("case", [
        # (a, beta, f, exact integral of x^beta f on [a, a+1], expected order)
        # Interior start, nonnegative exponent, negative exponent with flat
        # f at 0, negative exponent with sloped f at 0 (order beta + 2), and
        # the superconvergent pair: for f = x^2 on [0, 1] the h^2 error
        # coefficient is (2*beta+1)/(12*(beta+1)), zero at beta = -1/2, so
        # the endpoint order beta + 3 = 2.5 is what remains.
        (0.5, -0.7, lambda x: x**2, (1.5**2.3 - 0.5**2.3) / 2.3, 2.0),
        (0.0, 0.5, lambda x: x**2, 2.0 / 7.0, 2.0),
        (0.0, -0.3, lambda x: x**2, 1.0 / 2.7, 2.0),
        (0.0, -0.5, lambda x: x, 2.0 / 3.0, 1.5),
        (0.0, -0.5, lambda x: x**2, 2.0 / 5.0, 2.5),
    ])
    def test_error_regimes(self, case):
        a, beta, f, exact, order = case
        sizes = 2 ** np.arange(4, 11)
        errs = [
            abs(modified_midpoint(f(_midpoints(a, a + 1, m)), a, a + 1, beta) - exact)
            for m in sizes
        ]
        assert fitted_order(sizes, errs) == pytest.approx(order, abs=0.2)

    def test_superconvergence_in_50_digits(self):
        # beta = -1/2, f = x^2: the error is C*h^2.5 with no h^2 term, so
        # err*m^2.5 settles to C while err*m^2 halves per 4x refinement.
        # The rule is evaluated in 50-digit arithmetic, and the float rule
        # must agree with it to rounding.
        with mpmath.workdps(50):
            beta = mpmath.mpf(-1) / 2
            exact = mpmath.mpf(2) / 5
            scaled_25, scaled_2 = [], []
            for m in (64, 256, 1024):
                powers = [(mpmath.mpf(n) / m) ** (beta + 1) for n in range(m + 1)]
                rule = sum((powers[n + 1] - powers[n]) / (beta + 1)
                           * ((n + mpmath.mpf(1) / 2) / m) ** 2
                           for n in range(m))
                float_rule = modified_midpoint(_midpoints(0, 1, m) ** 2,
                                               0.0, 1.0, -0.5)
                assert abs(float_rule - float(rule)) <= 1e-14
                err = rule - exact
                scaled_25.append(float(err * mpmath.mpf(m) ** 2.5))
                scaled_2.append(float(err * m**2))
        assert max(scaled_25) == pytest.approx(min(scaled_25), rel=1e-4)
        assert scaled_2[0] / scaled_2[1] == pytest.approx(2.0, rel=1e-3)
        assert scaled_2[1] / scaled_2[2] == pytest.approx(2.0, rel=1e-3)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError, match="nonempty"):
            modified_midpoint([], 0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            modified_midpoint(np.ones(4), 0.0, 1.0, -1.0)
        with pytest.raises(ParameterError):
            modified_midpoint(np.ones(4), 0.0, 1.0, -1.5)
        with pytest.raises(ParameterError):
            modified_midpoint(np.ones(4), 1.0, 0.5, 0.5)
        for a, b, beta in [(0.0, np.inf, 0.5), (0.0, 1.0, np.nan),
                           (0.0, 1.0, np.inf), (np.inf, np.inf, 0.5),
                           (0.5, 1.0, -np.inf)]:
            with pytest.raises(ParameterError):
                modified_midpoint(np.ones(4), a, b, beta)


class TestSignedPowerDifference:
    def test_plain_interval_length(self):
        h = 0.37
        assert signed_power_difference(h, -h, 0.0, 1, -1) == pytest.approx(2 * h)

    def test_square_root_kernel_from_zero(self):
        h = 0.12
        assert signed_power_difference(h, 0.0, -0.5, 1, 0) == pytest.approx(
            2 * math.sqrt(h)
        )

    def test_linear_kernel(self):
        h = 0.41
        assert signed_power_difference(2 * h, h, 1.0, 1, 1) == pytest.approx(
            3 * h * h / 2
        )

    def test_gamma_minus_one_rejected(self):
        with pytest.raises(ParameterError):
            signed_power_difference(1.0, 0.5, -1.0, 1, 1)


class TestSingularIntegralDirect:
    def test_zero_samples(self):
        g = GridSpec(N=5, r=2, L=1.0)
        F = MidpointSamples(values=np.zeros(g.num_midpoints), grid=g)
        out = singular_integral_direct(F, SingularParams(beta=1.0, gamma=0.5))
        assert np.all(out == 0)

    @pytest.mark.parametrize("n", [3, 8])
    def test_gamma_zero_removes_moving_singularity(self, n):
        # With gamma = 0 the integral is just ∫ sin = 2 for every node, and
        # refining r drives the midpoint error down.
        errs = []
        for r in (2, 8):
            g = GridSpec(N=n, r=r, L=1.0)
            F = MidpointSamples(values=np.ones(g.num_midpoints), grid=g)
            out = singular_integral_direct(F, SingularParams(beta=1.0, gamma=0.0))
            errs.append(np.max(np.abs(out - 2.0)))
        assert errs[1] < errs[0] / 4 * 1.5
        assert errs[1] < 1e-3

    @pytest.mark.parametrize("n, r", [(1024, 1), (512, 3)])
    def test_far_shift_matches_mpmath(self, n, r):
        # f is 1 at the last midpoint only, whose distance to s_0 is the
        # far shift a = 2rN − r − 1, where h(a+½) is close to π.  β = γ = 1
        # make the power differences exact, so only the sinc factors round;
        # sin evaluated near π would lose ~eps·2rN relative.
        g = GridSpec(N=n, r=r, L=1.0)
        f = np.zeros(g.num_midpoints)
        f[-1] = 1.0
        out = singular_integral_direct(MidpointSamples(values=f, grid=g),
                                       SingularParams(beta=1.0, gamma=1.0))[0]
        with mpmath.workdps(40):
            h = mpmath.pi / g.num_midpoints
            a = g.num_midpoints - r - 1
            z = h * (a + mpmath.mpf(1) / 2)
            exact = (mpmath.sin(h / 2) / (h / 2) / 2
                     * mpmath.sin(z) / z * (2 * a + 1) / 2 * h**3)
            assert abs(out.real - exact) <= 1e-15 * exact
        assert out.imag == 0

    def test_rational_profile_against_exact(self):
        # Single trigonometric mode u = e^{2is}: the full operator value is
        # known in closed form, and the quadrature error falls ~4x per
        # doubling of r.
        alpha, n = 1.3, 64
        errs = []
        for r in (32, 64):
            g = GridSpec(N=n, r=r, L=1.0)
            s = midpoint_nodes(g)
            f = (-4.0 * np.sin(s) + 4j * np.cos(s)) * np.exp(2j * s)
            F = MidpointSamples(values=f, grid=g)
            raw = singular_integral_direct(
                F, SingularParams(beta=alpha, gamma=1.0 - alpha)
            )
            approx = prefactors(FracLapParams(alpha=alpha, grid=g)) * raw
            exact = exact_rational(alpha, output_nodes(g))
            errs.append(np.max(np.abs(approx - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] < 5e-7

    def test_refinement_order_two(self):
        # log2 error ratio per r-doubling approaches 2 at large r.
        alpha, n = 1.3, 128
        errs = []
        for r in (64, 128):
            g = GridSpec(N=n, r=r, L=1.0)
            s = midpoint_nodes(g)
            f = (-4.0 * np.sin(s) + 4j * np.cos(s)) * np.exp(2j * s)
            F = MidpointSamples(values=f, grid=g)
            raw = singular_integral_direct(
                F, SingularParams(beta=alpha, gamma=1.0 - alpha)
            )
            approx = prefactors(FracLapParams(alpha=alpha, grid=g)) * raw
            exact = exact_rational(alpha, output_nodes(g))
            errs.append(np.sqrt(np.mean(np.abs(approx - exact) ** 2)))
        assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3

"""Fractional Laplacian (−Δ)^{α/2} on the real line, α ∈ (0,1)∪(1,2).

The real line is mapped onto (0, π) through x = L·cot(s), the resulting
singular integral is discretized with a midpoint rule that integrates the
singular kernel factors exactly, and the quadrature is evaluated either
directly (O(rN²), the permanent correctness oracle) or as one FFT
convolution read at every 2r-th shift (O(rN log N)).  A pseudospectral
route builds the integrand when u is known only through node samples,
closed-form reference solutions support validation, and a Runge-Kutta
driver evolves the focusing fractional cubic Schrödinger equation.

Typical use::

    from fraclap import GridSpec, FracLapParams, FractionalLaplacian
    from fraclap.profiles import RATIONAL, mapped_derivatives
    from fraclap.spectral import f_from_analytic

    params = FracLapParams(alpha=1.3, grid=GridSpec(N=1024, r=4, L=1.0))
    us, uss = mapped_derivatives(RATIONAL, 1.0)
    values = FractionalLaplacian(params).apply(
        f_from_analytic(us, uss, params.grid))
"""

from .errors import BlowUpError, ParameterError, SampleShapeError
from .fastconv import FastConvolver, fast_singular_integral
from .grid import GridSpec, index_sign, map_from_real, map_to_real, \
    midpoint_nodes, output_nodes
from .nls import EvolutionState, energy, rhs, rk4_step, simulate
from .operator import FracLapParams, FractionalLaplacian, apply, c_alpha, \
    prefactor, prefactors
from .quadrature import MidpointSamples, SingularParams, modified_midpoint, \
    signed_power_difference, singular_integral_direct
from .reference import ErrorReport, error_norms, exact_erf, exact_rational, \
    kummer_1f1
from .spectral import SpectralCoefficients, coefficients_from_samples, \
    derivatives_at_midpoints, even_extension, f_from_analytic, \
    f_from_samples, krasny_filter

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "ParameterError", "SampleShapeError",
    "GridSpec", "output_nodes", "midpoint_nodes", "map_to_real",
    "map_from_real", "index_sign",
    "SingularParams", "MidpointSamples", "modified_midpoint",
    "signed_power_difference", "singular_integral_direct",
    "FastConvolver", "fast_singular_integral",
    "SpectralCoefficients", "even_extension", "coefficients_from_samples",
    "krasny_filter", "derivatives_at_midpoints", "f_from_analytic",
    "f_from_samples",
    "FracLapParams", "FractionalLaplacian", "apply", "c_alpha",
    "prefactor", "prefactors",
    "ErrorReport", "exact_rational", "exact_erf", "kummer_1f1", "error_norms",
    "EvolutionState", "rhs", "rk4_step", "energy", "simulate",
    "__version__",
]

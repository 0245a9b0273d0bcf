"""Fractional Laplacian (−Δ)^{α/2} on the real line, α ∈ (0,1)∪(1,2).

The real line is mapped onto (0, π) through x = L·cot(s), the resulting
singular integral is discretized with a midpoint rule that integrates the
singular kernel factors exactly, and the quadrature is evaluated either
directly (O(rN²), the permanent correctness oracle) or as 2r polyphase
cyclic convolutions of length m ≥ 2N−1, one per residue of the midpoint
index mod 2r, against the kernel rows' spectra, which one half spectrum
per pair of conjugate rows fixes (O(rN log N)).  A pseudospectral route
builds the integrand when u is known only through node samples,
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
from .grid import GridSpec
from .operator import FracLapParams, FractionalLaplacian

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "ParameterError", "SampleShapeError",
    "GridSpec", "FracLapParams", "FractionalLaplacian",
    "__version__",
]

"""Fractional Laplacian (−Δ)^{α/2} on the real line, α ∈ (0,1)∪(1,2).

The map x = L·cot(s) carries the line onto (0, π), where a midpoint rule
that integrates the kernel's singular factors exactly discretizes the
integral.  The quadrature is evaluated directly (O(rN²), the permanent
correctness oracle) or by FFT convolution (O(rN log N)), from analytic
derivatives or from node samples of u.  Closed-form references and a
fractional NLS driver come with it.

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

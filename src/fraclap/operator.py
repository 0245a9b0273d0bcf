"""Assembly of the fractional Laplacian (−Δ)^{α/2} on the mapped grid.

With β = α and γ = 1 − α, the singular quadrature of
:mod:`fraclap.fastconv` evaluates the integral part of the operator; one
node-dependent prefactor turns it into (−Δ)^{α/2}u at x_j = L·cot(s_j):

    prefactor(j) = sin^{α−1}(s_j) / (L^α · 2Γ(2−α) · cos(πα/2)),

the defining constant c_α = α · 2^{α−1} Γ(1/2 + α/2) / (√π · Γ(1 − α/2))
simplified by the reflection and duplication identities of Γ.  α = 1, where
the operator is a Hilbert transform of u_x, is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fastconv import FastConvolver
from .grid import GridSpec, _finite_real, output_nodes
from .quadrature import SingularParams
from .spectral import bin_twiddles, f_from_samples

__all__ = [
    "FracLapParams",
    "prefactors",
    "FractionalLaplacian",
]

# α this close to 1 is rejected: cos(πα/2) → 0 makes the prefactor blow up
# before the (removable) degeneracy of the unsimplified form cancels it.
_ALPHA_ONE_MARGIN = 1e-8


@dataclass(frozen=True)
class FracLapParams:
    """Operator order α ∈ (0,1)∪(1,2) plus the discretization it acts on."""

    alpha: float
    grid: GridSpec

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite_real("alpha", self.alpha, 0.0, 2.0))
        if abs(self.alpha - 1.0) < _ALPHA_ONE_MARGIN:
            raise ParameterError(
                "alpha = 1 (the Hilbert-transform case) is not supported"
            )
        scale = _prefactor_scale(self.alpha, self.grid.L)
        if not (0.0 < abs(scale) < math.inf and abs(1.0 / scale) < math.inf):
            raise ParameterError(
                f"alpha = {self.alpha!r} with L = {self.grid.L!r} puts the "
                "prefactor's L^alpha*2*Gamma(2-alpha)*cos(pi*alpha/2) "
                "outside the float range"
            )

    @property
    def singular_params(self) -> SingularParams:
        """The kernel exponents the operator uses: β = α, γ = 1 − α."""
        return SingularParams(beta=self.alpha, gamma=1.0 - self.alpha)


def _prefactor_scale(a: float, L: float) -> float:
    """L^α·2Γ(2−α)·cos(πα/2), the prefactor's divisor; inf if L^α overflows."""
    try:
        power = L**a
    except OverflowError:
        return math.inf
    return power * 2.0 * math.gamma(2.0 - a) * math.cos(math.pi * a / 2.0)


def prefactors(p: FracLapParams) -> np.ndarray:
    """The prefactor at every output node, as one vector."""
    s = output_nodes(p.grid)
    return np.sin(s) ** (p.alpha - 1.0) / _prefactor_scale(p.alpha, p.grid.L)


class FractionalLaplacian:
    """(−Δ)^{α/2} as a reusable operator on a fixed grid.

    With ``cache_kernels`` (the default) it keeps the fast-convolution plan
    and the sampled route's :func:`fraclap.spectral.bin_twiddles`, both
    built by the first call, for every later application; either way the
    bits are the same.
    """

    def __init__(self, params: FracLapParams, cache_kernels: bool = True):
        self.params = params
        self._conv = FastConvolver(
            params.grid, params.singular_params, cache_kernels=cache_kernels
        )
        self._pref = prefactors(params)
        self._twiddles = None

    def apply(self, F) -> np.ndarray:
        """Operator values at all x_j, approximating (−Δ)^{α/2}u(x_j) with an
        error O(1/r²) uniformly in j, from the integrand F of
        f(s) = sin(s)·u_ss + 2cos(s)·u_s: :class:`MidpointSamples` or an
        integrand of :mod:`fraclap.spectral`, built on this grid.
        """
        values = self._conv.convolve(F)
        values *= self._pref  # in place: the result is a fresh array
        return values

    def apply_to_samples(self, u_nodes) -> np.ndarray:
        """Operator values from u at the N output nodes alone, as inside an
        evolution loop: ``apply(f_from_samples(u_nodes, grid))``.  A kept
        plan keeps the fold twiddles after its first successful call."""
        g = self.params.grid
        values = self.apply(f_from_samples(u_nodes, g, self._twiddles))
        if self._twiddles is None and self._conv.cache_kernels:
            self._twiddles = bin_twiddles(g)
        return values

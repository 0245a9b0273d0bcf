"""Assembly of the fractional Laplacian (−Δ)^{α/2} on the mapped grid.

With β = α and γ = 1 − α, the singular quadrature of
:mod:`fraclap.fastconv` evaluates the integral part of the operator; one
node-dependent prefactor turns it into (−Δ)^{α/2}u at x_j = L·cot(s_j):

    prefactor(j) = sin^{α−1}(s_j) / (L^α · 2Γ(2−α) · cos(πα/2)).

This compact form follows from the defining constant

    c_α = α · 2^{α−1} Γ(1/2 + α/2) / (√π · Γ(1 − α/2))

through the reflection and duplication identities of Γ; both forms are
kept (the long one for cross-checking) and agree to machine precision.

α = 1 is excluded: there the operator degenerates to a Hilbert transform
of u_x with a different kernel entirely, and both prefactor forms become
0·∞ expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fastconv import FastConvolver
from .grid import GridSpec, output_nodes
from .quadrature import MidpointSamples, SingularParams
from .spectral import f_from_samples

__all__ = [
    "FracLapParams",
    "c_alpha",
    "prefactor",
    "prefactors",
    "FractionalLaplacian",
    "apply",
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
        if not (0.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must lie in (0, 2), got {self.alpha}")
        if abs(self.alpha - 1.0) < _ALPHA_ONE_MARGIN:
            raise ParameterError(
                "alpha = 1 (the Hilbert-transform case) is not supported"
            )

    @property
    def singular_params(self) -> SingularParams:
        """The kernel exponents the operator uses: β = α, γ = 1 − α."""
        return SingularParams(beta=self.alpha, gamma=1.0 - self.alpha)


def c_alpha(alpha: float) -> float:
    """The defining constant of the operator's singular-integral form."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 + alpha / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )


def prefactor(p: FracLapParams, j: int) -> float:
    """sin^{α−1}(s_j) / (L^α · 2Γ(2−α) · cos(πα/2)) at output node j."""
    if not 0 <= j < p.grid.N:
        raise ParameterError(f"node index {j} outside 0..{p.grid.N - 1}")
    return float(prefactors(p)[j])


def prefactors(p: FracLapParams) -> np.ndarray:
    """The prefactor at every output node, as one vector."""
    s = output_nodes(p.grid)
    a = p.alpha
    return np.sin(s) ** (a - 1.0) / (
        p.grid.L**a * 2.0 * math.gamma(2.0 - a) * math.cos(math.pi * a / 2.0)
    )


class FractionalLaplacian:
    """(−Δ)^{α/2} as a reusable operator on a fixed grid.

    Holds the fast-convolution plan, so repeated applications (e.g. the
    four stage evaluations of every time step) reuse the transformed
    sample-independent kernel.
    """

    def __init__(self, params: FracLapParams, cache_kernels: bool = True):
        self.params = params
        self._conv = FastConvolver(
            params.grid, params.singular_params, cache_kernels=cache_kernels
        )
        self._pref = prefactors(params)

    def apply(self, F: MidpointSamples) -> np.ndarray:
        """Operator values at all x_j from integrand midpoint samples F.

        F must sample f(s) = sin(s)·u_ss + 2cos(s)·u_s (either route of
        :mod:`fraclap.spectral`).  The result approximates
        (−Δ)^{α/2}u(x_j) with an error that is O(1/r²) uniformly in j.
        """
        if F.grid != self.params.grid:
            raise ParameterError("samples were built for a different grid")
        return self._pref * self._conv.apply(F.values)

    def apply_to_samples(self, u_nodes) -> np.ndarray:
        """Operator values from u at the N output nodes alone.

        Builds the integrand pseudospectrally (:func:`f_from_samples`) and
        applies the operator; this is the only possible route when u is
        known by samples, as inside an evolution loop.
        """
        F = f_from_samples(u_nodes, self.params.grid)
        return self.apply(F)


def apply(F: MidpointSamples, p: FracLapParams) -> np.ndarray:
    """One-shot (−Δ)^{α/2}u at all x_j from integrand samples F."""
    return FractionalLaplacian(p, cache_kernels=False).apply(F)

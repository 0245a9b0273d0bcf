"""Building the quadrature integrand f(s) = sin(s)·u_ss + 2cos(s)·u_s.

Mapping x = L·cot(s) turns the second-derivative kernel on the real line
into an integral over (0, π) whose smooth factor is
f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s).  This module produces f at the
2rN quadrature midpoints by either of two routes:

* :func:`f_from_analytic` — evaluate caller-supplied u_s, u_ss directly;
* :func:`f_from_samples` — given only u at the N output nodes, extend u
  evenly across s = π (making it continuous and 2π-periodic), expand it in
  a trigonometric series sampled at the shifted nodes, drop round-off
  noise with a Krasny filter, and differentiate the series exactly on a
  zero-padded mode set so the derivatives land on all 2rN midpoints.

The shifted node set s_j = (2j+1)π/(2N) never contains 0 or π, so the
series machinery stays clear of the map's poles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, SampleShapeError
from .grid import GridSpec, midpoint_nodes
from .quadrature import MidpointSamples

__all__ = [
    "SpectralCoefficients",
    "even_extension",
    "coefficients_from_samples",
    "krasny_filter",
    "derivatives_at_midpoints",
    "f_from_analytic",
    "f_from_samples",
]


@dataclass(frozen=True)
class SpectralCoefficients:
    """Trigonometric coefficients û(k), k ∈ {−N..N−1}, of a 2π-periodic u.

    ``coeffs`` is stored in transform order: index p holds wavenumber
    k = p for p < N and k = p − 2N for p ≥ N, so ``coeffs[k % (2N)]`` is
    û(k) for any k in range.
    """

    coeffs: np.ndarray
    n_modes: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or len(coeffs) != 2 * self.n_modes:
            raise SampleShapeError(
                f"expected {2 * self.n_modes} coefficients, got {coeffs.shape}"
            )

    def wavenumbers(self) -> np.ndarray:
        """The wavenumber of each stored coefficient, in storage order."""
        p = np.arange(2 * self.n_modes)
        return np.where(p < self.n_modes, p, p - 2 * self.n_modes)

    def coefficient(self, k: int) -> complex:
        """û(k) for k ∈ {−N..N−1}."""
        if not -self.n_modes <= k < self.n_modes:
            raise ParameterError(f"wavenumber {k} outside [-N, N-1]")
        return complex(self.coeffs[k % (2 * self.n_modes)])


def even_extension(u_nodes) -> np.ndarray:
    """Mirror N samples on (0, π) across s = π to the full circle.

    Input: u at s_j = (2j+1)π/(2N), j = 0..N−1.  Output: 2N samples at the
    same formula for j = 0..2N−1, satisfying u(π+t) = u(π−t).  On the
    shifted nodes the mirror is simply the reversed input, so the extension
    is exact (no interpolation).
    """
    u_nodes = np.asarray(u_nodes, dtype=complex)
    if u_nodes.ndim != 1 or len(u_nodes) == 0:
        raise SampleShapeError("u_nodes must be a nonempty vector")
    return np.concatenate([u_nodes, u_nodes[::-1]])


def coefficients_from_samples(u_vals, threshold: float | None = None
                              ) -> SpectralCoefficients:
    """Coefficients û(k) of the series matching u at the 2N shifted nodes.

    ``u_vals`` must hold u at s_j = (2j+1)π/(2N) for j = 0..2N−1 (use
    :func:`even_extension` to produce them from samples on (0, π)).  The
    half-node shift shows up as the phase e^{−ikπ/(2N)} on the plain
    transform.  Coefficients are Krasny-filtered before being returned;
    ``threshold`` defaults to machine epsilon relative to the largest
    coefficient magnitude.
    """
    u_vals = np.asarray(u_vals, dtype=complex)
    if u_vals.ndim != 1 or len(u_vals) == 0:
        raise SampleShapeError("u_vals must be a nonempty vector")
    if len(u_vals) % 2:
        raise SampleShapeError(
            f"need an even number of samples (2N), got {len(u_vals)}"
        )
    n = len(u_vals) // 2
    p = np.arange(2 * n)
    k = np.where(p < n, p, p - 2 * n)
    coeffs = np.exp(-1j * k * np.pi / (2 * n)) / (2 * n) * np.fft.fft(u_vals)
    c = SpectralCoefficients(coeffs=coeffs, n_modes=n)
    if threshold is None:
        threshold = float(np.finfo(float).eps * np.max(np.abs(coeffs)))
    return krasny_filter(c, threshold)


def krasny_filter(c: SpectralCoefficients, threshold: float
                  ) -> SpectralCoefficients:
    """Zero every coefficient with |û(k)| < threshold.

    Spectral differentiation multiplies û(k) by ik and (ik)², which turns
    round-off-level coefficients at high k into O(1) noise; clipping them
    at the round-off floor keeps the derivatives clean.
    """
    if threshold < 0:
        raise ParameterError("threshold must be nonnegative")
    filtered = np.where(np.abs(c.coeffs) < threshold, 0.0, c.coeffs)
    return SpectralCoefficients(coeffs=filtered, n_modes=c.n_modes)


def derivatives_at_midpoints(c: SpectralCoefficients, g: GridSpec):
    """Evaluate u_s and u_ss of the series at all 2rN midpoints in (0, π).

    The mode set is zero-padded from {−N..N−1} to {−2rN..2rN−1} so the
    inverse transform of length 4rN lands exactly on the midpoints
    h(n+1/2) of the full circle; the phase e^{ikπ/(4rN)} accounts for the
    half-step offset.  Only the first 2rN values (those in (0, π)) are
    returned.
    """
    if c.n_modes != g.N:
        raise SampleShapeError(
            f"coefficients carry N={c.n_modes} modes but the grid has N={g.N}"
        )
    n_big = 4 * g.r * g.N
    if n_big > 2**52:
        raise ParameterError("r*N too large for exact index arithmetic")
    pad = np.zeros(n_big, dtype=complex)
    pad[: g.N] = c.coeffs[: g.N]
    pad[n_big - g.N:] = c.coeffs[g.N:]
    p = np.arange(n_big)
    k = np.where(p < n_big // 2, p, p - n_big)
    phased = pad * np.exp(1j * k * np.pi / n_big)
    us_full = np.fft.ifft(1j * k * phased) * n_big
    uss_full = np.fft.ifft(-(k.astype(float) ** 2) * phased) * n_big
    half = 2 * g.r * g.N
    return us_full[:half], uss_full[:half]


def f_from_analytic(us: Callable, uss: Callable, g: GridSpec) -> MidpointSamples:
    """Sample f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) from analytic derivatives.

    ``us`` and ``uss`` are callables on (0, π); they are evaluated at all
    2rN midpoints.
    """
    s = midpoint_nodes(g)
    values = np.sin(s) * np.asarray(uss(s), dtype=complex) \
        + 2.0 * np.cos(s) * np.asarray(us(s), dtype=complex)
    return MidpointSamples(values=values, grid=g)


def f_from_samples(u_nodes, g: GridSpec,
                   threshold: float | None = None) -> MidpointSamples:
    """Build f at the midpoints from u sampled at the N output nodes only.

    Composition of :func:`even_extension`,
    :func:`coefficients_from_samples` and
    :func:`derivatives_at_midpoints`; this is the route used when no
    analytic derivatives are available (e.g. inside a time stepper).
    """
    u_nodes = np.asarray(u_nodes, dtype=complex)
    if u_nodes.shape != (g.N,):
        raise SampleShapeError(
            f"expected {g.N} node samples, got {u_nodes.shape}"
        )
    c = coefficients_from_samples(even_extension(u_nodes), threshold=threshold)
    us_mid, uss_mid = derivatives_at_midpoints(c, g)
    s = midpoint_nodes(g)
    values = np.sin(s) * uss_mid + 2.0 * np.cos(s) * us_mid
    return MidpointSamples(values=values, grid=g)

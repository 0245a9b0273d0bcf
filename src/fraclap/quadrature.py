"""Singularity-exact modified midpoint rule and the direct singular integral.

The rule integrates the singular factor of ``x^β f(x)`` exactly over each
subinterval and freezes the smooth factor at its midpoint:

    ∫ x^β f(x) dx  ≈  Σ_n f(x_{n+1/2}) · (x_{n+1}^{β+1} − x_n^{β+1})/(β+1).

:func:`singular_integral_direct` applies it to both singular factors of

    I(s_j) = ∫_0^π sin^β(η) |sin(η − s_j)|^γ f(η) dη

by plain double summation, O(rN²).  It is the permanent correctness oracle
for :mod:`fraclap.fastconv`, which must agree with it to near machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SampleShapeError
from .grid import GridSpec, _finite_real, index_sign

__all__ = [
    "SingularParams",
    "MidpointSamples",
    "modified_midpoint",
    "signed_power_difference",
    "singular_integral_direct",
]

# Below this |z|, sin(z)/z is 1 − z²/6 to a relative 1e-32.
_SINC_SERIES_CUTOFF = 1e-8


def _float_or_complex(x) -> np.ndarray:
    """``x`` as float64, or as complex128 when it is complex."""
    x = np.asarray(x)
    return x.astype(complex if np.iscomplexobj(x) else float, copy=False)


def _pair_rows(values: np.ndarray, g: GridSpec) -> tuple:
    """The (even, odd) pair rows of f, as views: row c of each holds the
    midpoints 2rq + 2c and 2rq + 2r−1−2c, q = 0..N−1."""
    rows = values.reshape(g.N, 2 * g.r).T
    return rows[0::2], rows[::-2]


def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with the convention sin(0)/0 = 1, safe near z = 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SINC_SERIES_CUTOFF
    out = np.sin(z, out=np.empty_like(z))  # in place: one array besides z
    np.divide(out, z, out=out, where=~small)
    out[small] = 1.0 - z[small] * z[small] / 6.0
    return out


@dataclass(frozen=True)
class SingularParams:
    """Exponent pair of the kernel sin^β(η)·|sin(η−s)|^γ: finite β > 0 and
    γ > −1, where the two-sided quadrature converges."""

    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite_real("beta", self.beta, 0.0))
        object.__setattr__(self, "gamma", _finite_real("gamma", self.gamma, -1.0))


@dataclass(frozen=True)
class MidpointSamples:
    """Integrand samples f at the 2rN fine midpoints of a grid, stored as
    float64 when real and complex128 otherwise, with the ``real`` and
    ``pairs`` of the integrands of :mod:`fraclap.spectral`."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        values = _float_or_complex(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.grid.num_midpoints:
            raise SampleShapeError(
                f"expected {self.grid.num_midpoints} midpoint samples "
                f"(2rN for N={self.grid.N}, r={self.grid.r}), got {values.shape}"
            )

    @property
    def real(self) -> bool:
        """Whether the samples are float64."""
        return not np.iscomplexobj(self.values)

    def pairs(self, c0: int, c1: int, work) -> None:
        """Row pairs c0..c1−1 for :meth:`fraclap.fastconv.FastConvolver.convolve`,
        in the layout of :meth:`fraclap.spectral.SampledIntegrand.pairs`."""
        n, w = self.grid.N, work[:c1 - c0]
        even, odd = _pair_rows(self.values, self.grid)
        w[:, :n] = even[c0:c1]
        np.negative(odd[c0:c1, ::-1], out=w[:, n:2 * n])


def modified_midpoint(f_mid, a: float, b: float, beta: float) -> complex:
    """Approximate ∫_a^b x^β f(x) dx with the singular factor exact, from
    ``f_mid[n]``, f at x_{n+1/2} = a + h(n+1/2), h = (b−a)/len(f_mid).

    Exact whenever f is constant.  a, b and β must be finite; β = −1 is
    rejected, and β ≤ −1 when a = 0 (the integral diverges).
    """
    f_mid = np.asarray(f_mid)
    if f_mid.ndim != 1 or len(f_mid) == 0:
        raise ParameterError("f_mid must be a nonempty vector")
    a = _finite_real("a", a, 0.0, low_closed=True)
    b = _finite_real("b", b, a)  # a < b
    beta = _finite_real("beta", beta)
    if beta == -1:
        raise ParameterError("beta = -1 is outside the supported family")
    if a == 0 and beta <= -1:
        raise ParameterError("a = 0 requires beta > -1")
    m = len(f_mid)
    x = a + (b - a) / m * np.arange(m + 1)
    powers = x ** (beta + 1.0)
    weights = (powers[1:] - powers[:-1]) / (beta + 1.0)
    return complex(np.sum(weights * f_mid))


def signed_power_difference(x_next, x_prev, gamma: float, sign_next, sign_prev):
    """[sgn_next·|x_next|^{γ+1} − sgn_prev·|x_prev|^{γ+1}]/(γ+1), the exact
    integral of |x|^γ over [x_prev, x_next], for scalars or arrays.

    The caller supplies the signs (from :func:`fraclap.grid.index_sign` for
    node differences), so an argument that is zero in index arithmetic
    contributes exactly zero.
    """
    gamma = _finite_real("gamma", gamma)
    if gamma == -1:
        raise ParameterError("gamma = -1 is outside the supported family")
    x_next = np.asarray(x_next, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    out = (
        np.asarray(sign_next) * np.abs(x_next) ** (gamma + 1.0)
        - np.asarray(sign_prev) * np.abs(x_prev) ** (gamma + 1.0)
    ) / (gamma + 1.0)
    return out if out.ndim else float(out)


def singular_integral_direct(F: MidpointSamples, p: SingularParams) -> np.ndarray:
    """I(s_j) = ∫_0^π sin^β(η)|sin(η−s_j)|^γ f(η) dη for all j, by literal
    double summation: the lower half of the midpoints resolves sin^β at
    η = 0, the upper half at η = π, and the moving factor is integrated
    exactly by signed power differences with signs from index arithmetic.

    O(rN²); the permanent oracle for
    :func:`fraclap.fastconv.fast_singular_integral`.
    """
    g = F.grid
    N, r, h = g.N, g.r, g.h
    rn = r * g.N
    two_rn = 2 * rn

    n = np.arange(two_rn, dtype=np.int64)
    mid = (2 * n + 1) * (0.5 * h)
    # Power weights in index units, where node differences are exact, scaled
    # once at the end; π − node reads the node powers reversed (π = h·2rN).
    node_pow = np.arange(two_rn + 1, dtype=float) ** (p.beta + 1.0)
    w_lower = (node_pow[1 : rn + 1] - node_pow[:rn]) / (p.beta + 1.0)
    k = np.arange(rn, two_rn, dtype=np.int64)
    w_upper = (node_pow[two_rn - k] - node_pow[two_rn - k - 1]) / (p.beta + 1.0)

    sinc_lower = _sinc(mid[:rn]) ** p.beta
    # sin(η) = sin(π − η): the complementary angle keeps full accuracy near π.
    sinc_upper = _sinc(h * (two_rn - k - 0.5)) ** p.beta

    scale = h ** (p.beta + p.gamma + 1.0)
    f = F.values  # read once: a lazy integrand evaluates f per read
    out = np.empty(N, dtype=complex)
    for j in range(N):
        ridx = (2 * j + 1) * r
        # sin(h·t) = sin(π − h·t): the complementary angle is accurate near π.
        t = np.abs(n + 0.5 - ridx)
        moving = (np.sin(h * np.minimum(t, two_rn - t)) / (h * t)) ** p.gamma
        w_moving = signed_power_difference(
            n + 1 - ridx,
            n - ridx,
            p.gamma,
            index_sign(n + 1, j, r),
            index_sign(n, j, r),
        )
        lower = np.sum(sinc_lower * moving[:rn] * w_lower * w_moving[:rn] * f[:rn])
        upper = np.sum(sinc_upper * moving[rn:] * w_upper * w_moving[rn:] * f[rn:])
        out[j] = (lower + upper) * scale
    return out

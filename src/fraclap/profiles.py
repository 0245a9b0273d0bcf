"""Built-in test profiles and the chain rule for mapped derivatives.

Each profile bundles u and its first two x-derivatives with the exact
fractional Laplacian where one is known.  ``mapped_derivatives`` converts
the x-space derivatives into the s-space ones the integrand needs, via
x = L·cot(s):

    u_s  = u_x · x_s,              x_s  = −L/sin²(s),
    u_ss = u_xx · x_s² + u_x · x_ss,   x_ss = 2L·cos(s)/sin³(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .grid import _finite_real, map_from_real
from .reference import exact_erf, exact_rational

__all__ = ["Profile", "RATIONAL", "ERF", "GAUSSIAN", "builtin_profile",
           "mapped_derivatives"]


@dataclass(frozen=True)
class Profile:
    """A test function with x-space derivatives and optional exact image."""

    name: str
    u: Callable
    ux: Callable
    uxx: Callable
    exact: Callable | None  # (alpha, x) -> exact operator values, if known


def _erf_vec(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.flat), float, x.size).reshape(x.shape)


RATIONAL = Profile(
    name="rational",
    u=lambda x: (1j * np.asarray(x) - 1.0) / (1j * np.asarray(x) + 1.0),
    ux=lambda x: 2j / (1j * np.asarray(x) + 1.0) ** 2,
    uxx=lambda x: 4.0 / (1j * np.asarray(x) + 1.0) ** 3,
    # The closed form lives in s-coordinates; cot(map_from_real(x)) == x.
    exact=lambda alpha, x: exact_rational(alpha, map_from_real(x, 1.0)),
)

ERF = Profile(
    name="erf",
    u=_erf_vec,
    ux=lambda x: 2.0 / math.sqrt(math.pi) * np.exp(-np.asarray(x, float) ** 2),
    uxx=lambda x: -4.0 / math.sqrt(math.pi) * np.asarray(x, float)
    * np.exp(-np.asarray(x, float) ** 2),
    exact=exact_erf,
)

GAUSSIAN = Profile(
    name="gaussian",
    u=lambda x: np.exp(-np.asarray(x, float) ** 2),
    ux=lambda x: -2.0 * np.asarray(x, float) * np.exp(-np.asarray(x, float) ** 2),
    uxx=lambda x: (4.0 * np.asarray(x, float) ** 2 - 2.0)
    * np.exp(-np.asarray(x, float) ** 2),
    exact=None,
)

_BUILTINS = {p.name: p for p in (RATIONAL, ERF, GAUSSIAN)}


def builtin_profile(name: str) -> Profile:
    """Look up a built-in profile by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ParameterError(
            f"unknown builtin profile {name!r}; available: {sorted(_BUILTINS)}"
        ) from None


def mapped_derivatives(profile: Profile, L: float):
    """(u_s, u_ss) as callables of s ∈ (0, π), from x-space derivatives."""
    L = _finite_real("L", L, 0.0)

    def us(s):
        s = np.asarray(s, dtype=float)
        x = L / np.tan(s)
        return profile.ux(x) * (-L / np.sin(s) ** 2)

    def uss(s):
        s = np.asarray(s, dtype=float)
        x = L / np.tan(s)
        sin = np.sin(s)
        xs = -L / sin**2
        xss = 2.0 * L * np.cos(s) / sin**3
        return profile.uxx(x) * xs**2 + profile.ux(x) * xss

    return us, uss

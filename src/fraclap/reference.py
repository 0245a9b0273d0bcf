"""Closed-form reference solutions and error diagnostics.

Two test profiles have known fractional Laplacians:

* the rational profile u(x) = (ix−1)/(ix+1), whose image is
  −2Γ(1+α)/(ix+1)^{1+α};
* the error function u(x) = erf(x), whose image is
  (2^{1+α}/π)·Γ((1+α)/2)·x·₁F₁((1+α)/2; 3/2; −x²).

Node sets reach |x| in the hundreds of thousands, so :func:`kummer_1f1`
stays accurate at large negative arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SampleShapeError
from .grid import _finite_real, map_to_real

__all__ = ["ErrorReport", "exact_rational", "exact_rational_x", "exact_erf",
           "kummer_1f1", "error_norms"]


@dataclass(frozen=True)
class ErrorReport:
    """Normalized discrete L² and L∞ error norms, with run metadata."""

    l2: float
    linf: float
    N: int
    r: int | None = None
    alpha: float | None = None


def exact_rational_x(alpha: float, x) -> np.ndarray | complex:
    """(−Δ)^{α/2} of (ix−1)/(ix+1) at x, i.e. −2Γ(1+α)/(ix+1)^{1+α}, on the
    principal branch."""
    alpha = _finite_real("alpha", alpha, 0.0, 2.0)
    x = np.asarray(x, dtype=float)
    x = x if x.ndim else float(x)
    out = np.asarray(-2.0 * math.gamma(1.0 + alpha) / (1j * x + 1.0) ** (1.0 + alpha))
    return out if out.ndim else complex(out)


def exact_rational(alpha: float, s) -> np.ndarray | complex:
    """:func:`exact_rational_x` at x = cot(s); the profile is e^{2is} under
    the unit map."""
    return exact_rational_x(alpha, map_to_real(s, 1.0))  # raises outside (0, π)


def exact_erf(alpha: float, x) -> np.ndarray | float:
    """(−Δ)^{α/2} of erf at x: (2^{1+α}/π)·Γ((1+α)/2)·x·₁F₁((1+α)/2; 3/2; −x²)."""
    alpha = _finite_real("alpha", alpha, 0.0, 2.0)
    # x·₁F₁ decays like |x|^{−α}, so its limit 0 at x = ±∞ is that at x = 0.
    x_arr = np.where(np.isinf(x), 0.0, np.asarray(x, dtype=float))
    factor = 2.0 ** (1.0 + alpha) / math.pi * math.gamma((1.0 + alpha) / 2.0)
    out = factor * x_arr * kummer_1f1((1.0 + alpha) / 2.0, 1.5, -(x_arr**2))
    return out if out.ndim else float(out)


# Crossover of kummer_1f1's regimes: the reflected series holds until |z| ~ 700
# (sums ~e^{|z|}), and by 120 the asymptotic tail turns far below 1e-13.
_SERIES_LIMIT = 120.0
_MAX_TERMS = 600


def kummer_1f1(a: float, b: float, z) -> np.ndarray | float:
    """Confluent hypergeometric ₁F₁(a; b; z) for z ≤ 0, b > a > 0.

    The ascending series cancels once z ≪ −30, so it is never used:

    * |z| ≤ 120 — the reflected series e^z·₁F₁(b−a; b; −z), all terms
      positive; each entry gets the bits it gets when passed alone;
    * |z| > 120 — the large-argument expansion
      Γ(b)/Γ(b−a) · |z|^{−a} · Σ_n (a)_n (a−b+1)_n / (n! |z|^n),
      truncated where its divergent tail turns.

    Raises ParameterError for z > 0, NaN z or parameters outside
    b ≥ a > 0, and ArithmeticError if an entry misses ~1e-12 relative.
    """
    a = _finite_real("a", a, 0.0)
    b = _finite_real("b", b, a, low_closed=True)  # b >= a
    z_arr = np.asarray(z, dtype=float)
    if not np.all(z_arr <= 0):  # NaN fails too
        raise ParameterError("only z <= 0 is supported, and not NaN")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if a == b:
        out = np.exp(z_arr)
        return float(out[0]) if scalar else out
    out = np.empty_like(z_arr)

    near = np.abs(z_arr) <= _SERIES_LIMIT
    if np.any(near):
        out[near] = _reflected_series(a, b, z_arr[near])
    if np.any(~near):
        out[~near] = _asymptotic(a, b, z_arr[~near])
    return float(out[0]) if scalar else out


def _reflected_series(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """e^z · Σ_n (b−a)_n (−z)^n / ((b)_n n!), all terms positive.

    Entries sorted by |z| stop nearly in order, each at its first term
    ≤ 1e-17 of its sum, so the recurrence runs on the suffix still summing.
    An entry kept on behind a slower one adds only terms below 2^−54 of its
    sum, which round away: every sum is bit-identical to the entry alone.
    """
    order = np.argsort(z)[::-1]  # |z| ascending
    w = z[order]
    np.negative(w, out=w)
    term = np.ones_like(w)
    total = np.ones_like(w)
    lo = 0
    for n in range(_MAX_TERMS):
        t, s = term[lo:], total[lo:]
        t *= b - a + n
        t *= w[lo:]
        t /= (b + n) * (n + 1.0)
        s += t
        done = t <= 1e-17 * s
        first_open = int(np.argmin(done))
        if done[first_open]:
            ez = np.exp(np.negative(w, out=w), out=w)  # w is done with
            total *= ez
            ez[order] = total  # back to the order of z
            return ez
        lo += first_open
    raise ArithmeticError("reflected Kummer series did not converge")


def _asymptotic(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Large-|z| expansion for z → −∞, each entry truncated where its terms
    start growing; the first omitted term bounds the error."""
    w = -z  # > _SERIES_LIMIT
    term = np.ones_like(w)
    total = np.ones_like(w)
    tail = np.full_like(w, np.inf)  # first omitted term, per entry
    for n in range(_MAX_TERMS):
        new = term * (a + n) * (a - b + 1.0 + n) / ((n + 1.0) * w)
        growing = np.abs(new) >= np.abs(term)
        just_stopped = growing & (term != 0.0)
        tail[just_stopped] = np.abs(new[just_stopped])
        term = np.where(growing, 0.0, new)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            tail[np.isinf(tail)] = 0.0
            break
    else:
        raise ArithmeticError("asymptotic Kummer expansion did not settle")
    if np.any(tail > 1e-12 * np.abs(total)):
        raise ArithmeticError(
            "asymptotic Kummer expansion cannot reach the target accuracy "
            "for some arguments; they are too close to the series crossover"
        )
    return math.gamma(b) / math.gamma(b - a) * w ** (-a) * total


def error_norms(approx, exact, r: int | None = None,
                alpha: float | None = None) -> ErrorReport:
    """Normalized discrete L² and L∞ norms of approx − exact.

    l2 = sqrt((1/N)·Σ|approx_j − exact_j|²) ≤ linf = max_j |approx_j − exact_j|.
    """
    approx = np.atleast_1d(np.asarray(approx))
    exact = np.atleast_1d(np.asarray(exact))
    if approx.shape != exact.shape or approx.ndim != 1 or len(approx) == 0:
        raise SampleShapeError(
            f"need equal-length nonempty vectors, got {approx.shape} vs {exact.shape}"
        )
    diff = np.abs(approx - exact)
    return ErrorReport(
        l2=float(np.sqrt(np.mean(diff**2))),
        linf=float(np.max(diff)),
        N=len(approx),
        r=r,
        alpha=alpha,
    )

"""Closed-form reference solutions and error diagnostics.

Two test profiles have known fractional Laplacians:

* the rational profile u(x) = (ix−1)/(ix+1), whose image is
  −2Γ(1+α)/(ix+1)^{1+α};
* the error function u(x) = erf(x), whose image is
  (2^{1+α}/π)·Γ((1+α)/2)·x·₁F₁((1+α)/2; 3/2; −x²).

Both are exercised over node sets whose |x| reaches into the hundreds of
thousands, so the confluent hypergeometric evaluation must stay accurate
at extremely large negative arguments; see :func:`kummer_1f1` for the
two-regime strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SampleShapeError

__all__ = ["ErrorReport", "exact_rational", "exact_erf", "kummer_1f1", "error_norms"]


@dataclass(frozen=True)
class ErrorReport:
    """Normalized discrete L² and L∞ error norms, with run metadata."""

    l2: float
    linf: float
    N: int
    r: int | None = None
    alpha: float | None = None


def exact_rational(alpha: float, s) -> np.ndarray | complex:
    """(−Δ)^{α/2} of (ix−1)/(ix+1) at x = cot(s), i.e. −2Γ(1+α)/(i·cot(s)+1)^{1+α}.

    Principal branch of the complex power.  Under the unit-scale map the
    profile equals e^{2is}, so this doubles as the exact image of a single
    trigonometric mode.
    """
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0) or np.any(s_arr >= np.pi):
        raise ParameterError("s must lie strictly inside (0, pi)")
    out = np.asarray(
        -2.0 * math.gamma(1.0 + alpha) / (1j / np.tan(s_arr) + 1.0) ** (1.0 + alpha)
    )
    return out if out.ndim else complex(out)


def exact_erf(alpha: float, x) -> np.ndarray | float:
    """(−Δ)^{α/2} of erf at x: (2^{1+α}/π)·Γ((1+α)/2)·x·₁F₁((1+α)/2; 3/2; −x²)."""
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    x_arr = np.asarray(x, dtype=float)
    factor = 2.0 ** (1.0 + alpha) / math.pi * math.gamma((1.0 + alpha) / 2.0)
    out = factor * x_arr * kummer_1f1((1.0 + alpha) / 2.0, 1.5, -(x_arr**2))
    return out if out.ndim else float(out)


# Crossover between the two evaluation regimes of kummer_1f1.  The reflected
# series is cancellation-free and stays accurate well past this point (its
# partial sums reach ~e^{|z|}, safe in double until |z| ~ 700); by 120 the
# divergent asymptotic tail turns at a term far below 1e-13, so both regimes
# overlap with margin to spare.
_SERIES_LIMIT = 120.0
_MAX_TERMS = 600


def kummer_1f1(a: float, b: float, z) -> np.ndarray | float:
    """Confluent hypergeometric ₁F₁(a; b; z) for z ≤ 0, b > a > 0.

    Strategy — the ascending series cancels catastrophically in double
    precision once z ≪ −30, so it is never used.  Instead:

    * |z| ≤ 120 — the reflected series e^z·₁F₁(b−a; b; −z), whose terms
      are all positive for b > a > 0, so no cancellation occurs; each
      entry stops at its own convergence, with the bits it gets when
      passed alone;
    * |z| > 120 — the large-argument expansion
      Γ(b)/Γ(b−a) · |z|^{−a} · Σ_n (a)_n (a−b+1)_n / (n! |z|^n),
      truncated where its divergent tail turns; at this crossover the
      smallest term is far below double precision for the parameters of
      interest.

    Raises ParameterError for z > 0 or parameters outside b ≥ a > 0, and
    ArithmeticError if neither regime reaches the target accuracy
    (~1e-12 relative) for some entry.
    """
    if not (b >= a > 0):
        raise ParameterError(f"need b >= a > 0, got a={a}, b={b}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr > 0):
        raise ParameterError("only z <= 0 is supported")
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

    Each entry stops at its own n, the first whose term is ≤ 1e-17 of its
    sum.  Past the mean index of the terms, term/sum grows with |z|, so
    entries sorted by |z| stop nearly in order: the recurrence runs in
    place on the suffix of entries still summing, and the suffix sheds its
    leading converged entries.  An entry kept on behind a slower one adds
    only terms that keep falling and stay below 1e-17 < 2^−54 of its sum,
    under half an ulp, so they round away.  Every sum is therefore
    bit-identical to the entry summed alone.
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
    """Large-|z| expansion for z → −∞, truncated where the tail turns.

    The expansion is divergent; each entry stops adding terms once they
    start growing, and the magnitude of the first omitted term bounds the
    truncation error.
    """
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

    l2 = sqrt((1/N)·Σ|approx_j − exact_j|²), linf = max_j |approx_j − exact_j|.
    The 1/N normalization makes vectors of different lengths comparable and
    guarantees l2 ≤ linf.
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

"""Independent slow oracles used only by the tests.

Each oracle recomputes a quantity through a route that shares no code with
the implementation it checks: transforms by direct O(M²) summation,
convolutions by direct O(N²) summation, the pseudospectral integrand by
direct summation of its cosine series (and its sine series in long double),
the NLS standing wave by a fixed-point solve on the operator's dense
matrix, and the fractional Laplacian by adaptive quadrature of its
derivative-kernel form

    (c_α/α) ∫_0^∞ (u_x(x−y) − u_x(x+y)) / y^α dy,

which is principal-value free and converges absolutely for the profiles
used here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve


def c_alpha(alpha: float) -> float:
    """The defining constant of the operator's singular-integral form."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 + alpha / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )


def dft_direct(v) -> np.ndarray:
    """O(M²) forward transform by literal summation."""
    v = np.asarray(v, dtype=complex)
    m = len(v)
    p = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(p, p) / m) @ v


def cyclic_convolution_direct(u, v) -> np.ndarray:
    """O(N²) cyclic convolution (u*v)_m = Σ_n u_n v_{m-n}."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = len(u)
    return np.array(
        [sum(u[k] * v[(m - k) % n] for k in range(n)) for m in range(n)]
    )


def _angles(k, m: int) -> np.ndarray:
    """k·s_n at s_n = (2n+1)π/(2m), n < m, as a (len(k), m) table.

    The product is reduced modulo 2π in exact integer arithmetic before
    scaling, so the angle is accurate to round-off in [0, 2π) even where
    k·s_n is large; forming k·s_n in floating point would err by
    eps·k·s_n.
    """
    return np.pi * (np.outer(k, 2 * np.arange(m) + 1) % (4 * m)) / (2 * m)


def cosine_coefficients_direct(u) -> np.ndarray:
    """a_k, k < N, with Σ_k a_k cos(k s_j) = u_j at s_j = (2j+1)π/(2N).

    O(N²) summation of the discrete cosine orthogonality:
    a_k = (2/N) Σ_j u_j cos(k s_j), and half that for k = 0.
    """
    u = np.asarray(u, dtype=complex)
    n = len(u)
    a = 2.0 / n * (np.cos(_angles(np.arange(n), n)) @ u)
    a[0] /= 2
    return a


def integrand_direct(a, num_midpoints: int) -> np.ndarray:
    """f = sin(s)·u_ss + 2cos(s)·u_s for u = Σ_k a_k cos(ks), by O(N·M) sums.

    Evaluated at the M midpoints s_n = (2n+1)π/(2M); u_s and u_ss are
    summed term by term from the cosine series.
    """
    a = np.asarray(a, dtype=complex)
    k = np.arange(len(a))
    ks = _angles(k, num_midpoints).T
    us = -(np.sin(ks) * k) @ a
    uss = -(np.cos(ks) * k**2.0) @ a
    s = (2 * np.arange(num_midpoints) + 1) * np.pi / (2 * num_midpoints)
    return np.sin(s) * uss + 2.0 * np.cos(s) * us


# π to long double precision (np.pi is only float64).
_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def sine_series_long(a, num_midpoints: int) -> np.ndarray:
    """The integrand's sine series at the M midpoints, in long double.

    f = Σ_{m=1}^{N} b_m sin(m s_n), s_n = (2n+1)π/(2M), with
    b_m = −½(m²−1)(a_{m−1} − a_{m+1}) and a_N = a_{N+1} = 0, all formed in
    long double from ``a``.  sin(m s_n) = (e^{i m s_n} − e^{−i m s_n})/(2i)
    and m s_n = πm/(2M) + 2πmn/(2M) split f into an inverse and a forward
    DFT of length 2M with e^{±iπm/(2M)}·b_m in bin m, read at n < M: no
    Makhoul reindexing, no folding.  numpy's pocketfft transforms complex256
    input in long double (eps 1.08e-19).  Returns complex256.
    """
    a = np.asarray(a).astype(np.clongdouble)
    n, big_m = len(a), num_midpoints
    padded = np.zeros(n + 2, dtype=np.clongdouble)
    padded[:n] = a
    m = np.arange(1, n + 1)
    b = -0.5 * (m * m - 1).astype(np.longdouble) * (padded[:n] - padded[2:])
    angle = _PI_LONG * m.astype(np.longdouble) / (2 * big_m)
    phase = np.cos(angle) + 1j * np.sin(angle)
    up = np.zeros(2 * big_m, dtype=np.clongdouble)
    down = np.zeros(2 * big_m, dtype=np.clongdouble)
    up[1:n + 1] = b * phase
    down[1:n + 1] = b * phase.conj()
    return (2 * big_m * np.fft.ifft(up) - np.fft.fft(down))[:big_m] / 2j


def fraclap_quad(ux, alpha: float, x: float) -> float | complex:
    """Adaptive-quadrature fractional Laplacian at one point x.

    ``ux`` is the first derivative of the profile on the real line.  The
    y^{-α} endpoint singularity is handled by quadpack's algebraic weight
    on (0, 1); the tail is integrated to infinity directly.
    """

    def difference(y, part):
        d = ux(x - y) - ux(x + y)
        return d.real if part == "re" else d.imag

    def one_part(part):
        # Near 0 the difference vanishes linearly, so dividing it out
        # leaves a regular factor under the integrable weight y^{1-alpha}
        # (whose exponent stays > -1 for every supported alpha).  The
        # quadrature probes y = 0 itself; clamping keeps the ratio finite
        # and changes the regular factor by O(1e-9).
        head, _ = quad(lambda y: difference(max(y, 1e-9), part) / max(y, 1e-9),
                       0.0, 1.0,
                       weight="alg", wvar=(1.0 - alpha, 0.0), limit=400)
        tail, _ = quad(lambda y: difference(y, part) * y**(-alpha),
                       1.0, np.inf, limit=400)
        return head + tail

    probe = ux(x)
    if isinstance(probe, complex) or np.iscomplexobj(probe):
        value = one_part("re") + 1j * one_part("im")
    else:
        value = one_part("re")
    return c_alpha(alpha) / alpha * value


def nls_ground_state(apply, x, lam: float = 1.0, tol: float = 1e-13,
                     max_iter: int = 500) -> tuple:
    """Q with (λ + ½A)Q = Q³ at the nodes x, by Petviashvili's iteration.

    ``apply`` maps node samples to the operator's values at the same nodes
    (``FractionalLaplacian.apply_to_samples``); A is built densely from its
    action on the unit vectors, so no time stepping is involved.  From
    Q = sech(x), Q ← S^{3/2}(λ+½A)^{−1}Q³ with the stabilizing factor
    S = ⟨Q,(λ+½A)Q⟩/⟨Q,Q³⟩ (Pelinovsky & Stepanyants, SIAM J. Numer. Anal.
    42, 2004) until an update moves Q by less than ``tol``.  ψ = e^{iλt}Q
    then solves i·ψ_t = ½Aψ − |ψ|²ψ exactly.  Returns Q, the residual
    max|(λ+½A)Q − Q³| and the number of iterations.
    """
    n = len(x)
    k = lam * np.eye(n) + 0.5 * np.column_stack([apply(e) for e in np.eye(n)])
    lu = lu_factor(k)
    q = 1.0 / np.cosh(x)
    for it in range(1, max_iter + 1):
        q3 = q**3
        s = (q @ k @ q) / (q @ q3)
        q, previous = s**1.5 * lu_solve(lu, q3), q
        if np.max(np.abs(q - previous)) < tol:
            break
    return q, float(np.max(np.abs(k @ q - q**3))), it


def fitted_order(sizes, errors) -> float:
    """Least-squares slope of log2(error) against log2(size), negated.

    Returns p such that error ≈ C·size^{-p}.
    """
    lx = np.log2(np.asarray(sizes, dtype=float))
    ly = np.log2(np.asarray(errors, dtype=float))
    slope = np.polyfit(lx, ly, 1)[0]
    return -float(slope)

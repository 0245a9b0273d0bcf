"""O(rN log N) evaluation of the two-sided singular quadrature.

In integer index units (the factor h^{β+γ+1}/((β+1)(γ+1)) is applied once
at the end) the quadrature value at output node j is

    A_j = Σ_n  a_n · M(n − (2j+1)r),   n = 0..2rN−1,

where a_n is f at midpoint n times its fixed sin^β weight (regularized at
η = 0 on the lower half, at η = π on the upper half), and

    M(a) = sinc^γ(h(a+½)) · (sgn(a+1)|a+1|^{γ+1} − sgn(a)|a|^{γ+1})

is the moving-singularity weight.  M(a) = M(−a−1) exactly, so it is
evaluated for a ≥ 0 only, where no sign needs deciding.

With κ[t] = M(t+r−1), A_j = c[2rj] for the convolution c = a ⊛ κ.  The
shifts t span [−(2rN−1), 2r(N−1)], so a cyclic convolution of length
P = 2r·m, m ≥ 2N−1, does not alias; m is the smallest 5-smooth such
integer, which keeps the FFTs fast.  Only every 2r-th entry of c is read,
so c splits into 2r polyphase parts: with n = 2rq + ρ, a^ρ_q = a_{2rq+ρ}
and κ_ρ[q] = κ[(2rq − ρ) mod P], A_j = Σ_ρ (a^ρ ⊛_m κ_ρ)[j], ρ = 0..2r−1.
The plan is the table of the length-m FFTs of the κ_ρ, one row each.  The
row FFTs run batched, at most 2^17 points per call: pocketfft's scratch
grows with the points of a call, and batching keeps many short rows fast.
"""

from __future__ import annotations

import numpy as np

from .errors import SampleShapeError
from .grid import GridSpec
from .quadrature import MidpointSamples, SingularParams, _sinc

__all__ = ["FastConvolver", "fast_singular_integral"]


def _smooth5_at_least(n: int) -> int:
    """The smallest integer 2^a·3^b·5^c that is ≥ n (n ≥ 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_rows(a: np.ndarray) -> np.ndarray:
    """FFT every row of ``a`` in place, at most 2^17 points per call."""
    rows = max(1, (1 << 17) // a.shape[1])
    for i in range(0, a.shape[0], rows):
        np.fft.fft(a[i:i + rows], axis=1, out=a[i:i + rows])
    return a


class FastConvolver:
    """Fast-convolution plan for fixed (grid, β, γ).

    The plan is the pair (kernel table, sample weights), row ρ of the (2r, m)
    table the FFT of κ_ρ; it depends only on the grid and the exponents and
    is built on the first :meth:`apply`.
    With ``cache_kernels=True`` it is kept and reused by every later call,
    which is what makes repeated application inside a time stepper
    affordable.  With ``cache_kernels=False`` nothing is retained, which
    keeps the memory footprint flat for very large one-shot evaluations.
    """

    def __init__(self, grid: GridSpec, params: SingularParams,
                 cache_kernels: bool = True):
        self.grid = grid
        self.params = params
        self.cache_kernels = cache_kernels
        self.fft_length = 2 * grid.r * _smooth5_at_least(2 * grid.N - 1)
        self._plan = None

    def _kernel_table(self) -> np.ndarray:
        """Row ρ is the FFT of κ_ρ[q] = κ[(2rq − ρ) mod P], κ[t] = M(t+r−1)."""
        g, gamma, P = self.grid, self.params.gamma, self.fft_length
        two_rn, r = g.num_midpoints, g.r
        moving = np.diff(np.arange(two_rn - r + 1, dtype=float) ** (gamma + 1.0))
        moving *= _sinc(g.h * (np.arange(two_rn - r) + 0.5)) ** gamma  # M(a ≥ 0)
        kappa = np.zeros(P)
        kappa[: two_rn - 2 * r + 1] = moving[r - 1:]  # t ≥ 0
        kappa[P - two_rn + 1: P - r + 1] = moving[::-1]  # t ≤ −r, by symmetry
        kappa[P - r + 1:] = moving[: r - 1]  # −r < t < 0
        K = kappa.reshape(-1, 2 * r)  # K[q, c] = κ[2rq + c]
        table = np.empty((2 * r, len(K)), dtype=complex)
        table[0] = K[:, 0]
        table[1:, 1:] = K[:-1, :0:-1].T  # κ_ρ[q] = K[q − 1, 2r − ρ]
        table[1:, 0] = K[-1, :0:-1]
        return _fft_rows(table)

    def _weights(self) -> np.ndarray:
        """The sin^β weight of every midpoint, lower half then upper half."""
        g, beta = self.grid, self.params.beta
        h, rn = g.h, g.r * g.N
        m = np.arange(rn)
        dpow = np.diff(np.arange(rn + 1, dtype=float) ** (beta + 1.0))
        w = np.empty(2 * rn)
        w[:rn] = _sinc(h * (m + 0.5)) ** beta * dpow
        w[rn:] = (np.sin(h * (rn + m + 0.5)) / (h * (rn - m - 0.5))) ** beta \
            * dpow[::-1]
        return w

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the singular quadrature for midpoint samples ``values``.

        ``values`` must hold f at all 2rN midpoints.  Returns the length-N
        vector of quadrature values, equal to the direct double summation
        to near machine precision.
        """
        g, p = self.grid, self.params
        values = np.asarray(values)
        if values.shape != (g.num_midpoints,):
            raise SampleShapeError(
                f"expected {g.num_midpoints} midpoint samples, got {values.shape}"
            )
        # The table goes first: its temporaries peak while little else is
        # held.  Without a cache, every array is dropped once used.
        table, weights = self._plan or (self._kernel_table(), self._weights())
        if self.cache_kernels:
            self._plan = table, weights
        n, two_r = g.N, 2 * g.r
        buf = np.zeros(table.shape, dtype=complex)  # row ρ holds a^ρ
        np.multiply(weights.reshape(n, two_r).T, values.reshape(n, two_r).T,
                    out=buf[:, :n])
        del weights
        _fft_rows(buf)
        buf *= table
        del table
        for row in buf[1:]:  # sum the 2r products in place
            buf[0] += row
        np.fft.ifft(buf[0], out=buf[0])
        scale = g.h ** (p.beta + p.gamma + 1.0) / ((p.beta + 1) * (p.gamma + 1))
        return buf[0, :n] * scale


def fast_singular_integral(F: MidpointSamples, p: SingularParams) -> np.ndarray:
    """One-shot fast evaluation of the singular quadrature at all s_j.

    Equivalent to :func:`fraclap.quadrature.singular_integral_direct` to
    near machine precision, at O(rN log N) cost.
    """
    return FastConvolver(F.grid, p, cache_kernels=False).apply(F.values)

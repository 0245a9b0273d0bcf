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

M is real, so every κ_ρ is real and its spectrum Hermitian: the table keeps
the m//2+1 ``rfft`` bins of each row, half the bytes of the full spectra
(the real-input FFT of Sorensen, Jones, Heideman & Burrus, IEEE Trans. ASSP
35, 1987).  M(a) = M(−a−1) also gives κ_{2r−1−ρ}[q] = κ_ρ[−q], so rows
0..r−1 of the table are the conjugates of rows r..2r−1 and only those r
rows are transformed.  Real samples stay real: their rows go through
``rfft``, the products with the half table are summed into one row, and one
``irfft`` of length m gives A.  Complex samples keep complex row FFTs
against full rows, T[m − k] = conj T[k]: a kept plan mirrors the full table
once, a one-shot plan never does and multiplies the upper bins by the
conjugated half table on slices.  A real/imaginary split through the real
path measured slower.
"""

from __future__ import annotations

import numpy as np

from .errors import SampleShapeError
from .grid import GridSpec
from .quadrature import (MidpointSamples, SingularParams, _float_or_complex,
                         _sinc)

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


def _transform_rows(transform, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``transform`` every row of ``a`` into ``out``, at most 2^17 points per call."""
    rows = max(1, (1 << 17) // a.shape[1])
    for i in range(0, a.shape[0], rows):
        transform(a[i:i + rows], axis=1, out=out[i:i + rows])
    return out


def _full_table(half: np.ndarray, m: int) -> np.ndarray:
    """Length-m spectra of real rows from their first m//2+1 bins.

    A real row's spectrum is Hermitian, T[m − k] = conj(T[k]).
    """
    full = np.empty((half.shape[0], m), dtype=complex)
    full[:, :half.shape[1]] = half
    np.conjugate(half[:, (m - 1) // 2:0:-1], out=full[:, half.shape[1]:])
    return full


class FastConvolver:
    """Fast-convolution plan for fixed (grid, β, γ).

    The plan is the pair (sample weights, kernel table); it depends only on
    the grid and the exponents and is built on the first :meth:`apply`.
    Row ρ of the table is the spectrum of the real κ_ρ, kept as its m//2+1
    ``rfft`` bins, which is all real samples need; rows 0..r−1 are the
    conjugates of rows r..2r−1 (from M(a) = M(−a−1)).  Complex samples need
    the full length-m rows, T[m − k] = conj T[k].
    With ``cache_kernels=True`` the plan is kept and reused by every later
    call, which is what makes repeated application inside a time stepper
    affordable; its first complex call mirrors the full table once, whose
    first m//2+1 columns then serve real samples.  With
    ``cache_kernels=False`` nothing is retained and the table is never
    mirrored: complex rows are multiplied by the half table on slices, which
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
        """Row ρ is the rfft of κ_ρ[q] = κ[(2rq − ρ) mod P], κ[t] = M(t+r−1).

        Only rows r..2r−1 are transformed: with σ = ρ − r they read
        M(2rq − 1 − σ), which is M(σ) at q = 0, and by M(a) = M(−a−1) are
        M(2r(q−1) + 2r−1−σ) for 1 ≤ q < N and M(2r(m−q) + σ) for m−N < q < m,
        zero between.  κ_{2r−1−ρ}[q] = κ_ρ[−q], so the other rows are the
        conjugates T_{2r−1−ρ} = conj T_ρ.
        """
        g, gamma = self.grid, self.params.gamma
        n, r, two_rn = g.N, g.r, g.num_midpoints
        m = self.fft_length // (2 * r)
        moving = np.diff(np.arange(two_rn + 1, dtype=float) ** (gamma + 1.0))
        sinc = _sinc(g.h * (np.arange(two_rn) + 0.5))
        moving *= np.power(sinc, gamma, out=sinc)  # M(a ≥ 0)
        del sinc
        moving = moving.reshape(n, 2 * r)  # moving[q, c] = M(2rq + c)
        # The real rows sit in the first m floats of their table rows and
        # are transformed in place.
        table = np.zeros((2 * r, m // 2 + 1), dtype=complex)
        rows = table[r:].view(float)[:, :m]
        rows[:, 0] = moving[0, :r]
        rows[:, 1:n] = moving[:n - 1, :r - 1:-1].T
        rows[:, m - n + 1:] = moving[n - 1:0:-1, :r].T
        del moving
        _transform_rows(np.fft.rfft, rows, table[r:])
        np.conjugate(table[:r - 1:-1], out=table[:r])
        return table

    def _weights(self) -> np.ndarray:
        """The sin^β weight of every midpoint, lower half then upper half.

        sin(h(rN + k + ½)) = sin(h(rN − k − ½)), so the upper half is the
        lower one reversed; evaluating sin near π instead would lose up to
        1.6e-10 relative accuracy at N = 2^20.
        """
        g, beta = self.grid, self.params.beta
        h, rn = g.h, g.r * g.N
        w = _sinc(h * (np.arange(rn) + 0.5)) ** beta
        w *= np.diff(np.arange(rn + 1, dtype=float) ** (beta + 1.0))
        return np.concatenate((w, w[::-1]))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the singular quadrature for midpoint samples ``values``.

        ``values`` must hold f at all 2rN midpoints.  Returns the length-N
        vector of quadrature values, equal to the direct double summation
        to near machine precision: float64 for real samples, complex128 for
        complex ones.
        """
        g, p = self.grid, self.params
        values = _float_or_complex(values)
        if values.shape != (g.num_midpoints,):
            raise SampleShapeError(
                f"expected {g.num_midpoints} midpoint samples, got {values.shape}"
            )
        # Without a cache, every array is dropped once used.  Weights first:
        # at N = 2^20, r = 1 this order measured 252 MiB peak RSS against
        # 272 MiB, because it decides which freed temporaries glibc's heap
        # keeps resident.
        weights, table = self._plan or (self._weights(), self._kernel_table())
        n, two_r = g.N, 2 * g.r
        m = self.fft_length // two_r
        real = not np.iscomplexobj(values)
        if self.cache_kernels:
            if not real and table.shape[1] < m:
                table = _full_table(table, m)
            self._plan = weights, table
        # Row ρ holds a^ρ.  Real rows sit in the first m floats of their
        # half-spectrum row and are transformed in place (numpy copies an
        # input that overlaps its output, here one batch of rows).
        buf = np.zeros((two_r, m // 2 + 1 if real else m), dtype=complex)
        rows = buf.view(float)[:, :m] if real else buf
        np.multiply(weights.reshape(n, two_r).T, values.reshape(n, two_r).T,
                    out=rows[:, :n])
        del weights
        _transform_rows(np.fft.rfft if real else np.fft.fft, rows, buf)
        bins = min(table.shape[1], buf.shape[1])
        buf[:, :bins] *= table[:, :bins]
        if bins < m and not real:  # the half table: T[m − k] = conj T[k]
            up = np.conjugate(buf[:, bins:], out=buf[:, bins:])
            up *= table[:, (m - 1) // 2:0:-1]  # buf·conj T = conj(conj buf · T)
            np.conjugate(up, out=up)
        del table
        for row in buf[1:]:  # sum the 2r products in place
            buf[0] += row
        if real:  # into row 1, which has room for m floats
            out = np.fft.irfft(buf[0], n=m, out=buf[1].view(float)[:m])
        else:
            out = np.fft.ifft(buf[0], out=buf[0])
        scale = g.h ** (p.beta + p.gamma + 1.0) / ((p.beta + 1) * (p.gamma + 1))
        return out[:n] * scale


def fast_singular_integral(F: MidpointSamples, p: SingularParams) -> np.ndarray:
    """One-shot fast evaluation of the singular quadrature at all s_j.

    Equivalent to :func:`fraclap.quadrature.singular_integral_direct` to
    near machine precision, at O(rN log N) cost.
    """
    return FastConvolver(F.grid, p, cache_kernels=False).apply(F.values)

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
rows go in pairs, residues 2c and 2r−1−2c, whose kernel rows are each
other's mirror, and the convolution takes every odd row as −f:
:func:`_pair_rows` views f in pairs and :func:`fraclap.spectral.sine_pairs`
sums them.  A batch of pairs, about 2^14 points, is weighted, transformed,
multiplied by its table rows and summed into one row before the next
batch, so only one batch of weighted rows is held at a time.  The row FFTs
run batched, at most 2^17 points per call: pocketfft's scratch grows with
the points of a call, and batching keeps many short rows fast.

M is real, so every κ_ρ is real and its spectrum Hermitian: the table keeps
the m//2+1 ``rfft`` bins of each row, half the bytes of the full spectra
(the real-input FFT of Sorensen, Jones, Heideman & Burrus, IEEE Trans. ASSP
35, 1987).  M(a) = M(−a−1) also gives κ_{2r−1−ρ}[q] = κ_ρ[−q], so rows
0..r−1 of the table are the conjugates of rows r..2r−1 and only those r
rows are transformed.  Real samples stay real: their rows go through
``rfft``, the products with the half table are summed into one row, and one
``irfft`` of length m gives A.  Complex samples keep complex row FFTs
against the same half table: T_ρ[m − k] = conj T_ρ[k] = T_{2r−1−ρ}[k], so
a row's upper bins are the table with rows and columns reversed.  A
real/imaginary split through the real path measured slower.
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


def _pair_rows(values: np.ndarray, g: GridSpec) -> tuple:
    """The (even, odd) pair rows of f, as views."""
    rows = values.reshape(g.N, 2 * g.r).T
    return rows[0::2], rows[::-2]


def _transform_rows(transform, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``transform`` every row of ``a`` into ``out``, at most 2^17 points per call."""
    rows = max(1, (1 << 17) // a.shape[1])
    for i in range(0, a.shape[0], rows):
        transform(a[i:i + rows], axis=1, out=out[i:i + rows])
    return out


# Points of one batch of row pairs.  At N = 1024, r = 32 a warm sampled
# apply measured the same for 2^14 to 2^17 points and a third slower at
# 2^12; the smaller batch keeps each call's batch buffer at 256 KiB.
_BATCH_POINTS = 1 << 14


class FastConvolver:
    """Fast-convolution plan for fixed (grid, β, γ).

    The plan is the pair (sample weights, kernel table); it depends only on
    the grid and the exponents and is built on the first call.  The
    weights are kept as the (r, N) polyphase rows of the even residues: the
    weights are a palindrome, so the row of residue 2r−1−2c is that of 2c
    reversed.  Row ρ of the table is the spectrum of the real κ_ρ, kept as
    its m//2+1 ``rfft`` bins for real and complex samples alike; rows
    0..r−1 are the conjugates of rows r..2r−1 (from M(a) = M(−a−1)).

    With ``cache_kernels=True`` the plan is kept and reused by every later
    call, which is what makes repeated application inside a time stepper
    affordable; it is all a kept convolver holds.  Each call allocates one
    batch buffer of row pairs (``_BATCH_POINTS``, 256 KiB of complex rows)
    and lends its rows, at least 2N+2 floats or 2N complex wide, to the
    producer of the pairs, so a warm call allocates only arrays of length
    O(N).  With ``cache_kernels=False`` nothing is retained, which keeps
    the memory footprint flat for very large one-shot evaluations.
    """

    def __init__(self, grid: GridSpec, params: SingularParams,
                 cache_kernels: bool = True):
        self.grid = grid
        self.params = params
        self.cache_kernels = cache_kernels
        self.fft_length = 2 * grid.r * _smooth5_at_least(2 * grid.N - 1)
        # The index units' factor h^{β+γ+1}/((β+1)(γ+1)).
        self.scale = grid.h ** (params.beta + params.gamma + 1.0) / (
            (params.beta + 1) * (params.gamma + 1))
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
        # sin(h(a+½)) is a palindrome over a ∈ [0, 2rN): the lower half's
        # sin, mirrored, is never evaluated near π.
        sinc = g.h * (np.arange(two_rn) + 0.5)  # h(a+½), divided in place
        lower = np.sin(sinc[:r * n])
        np.divide(lower, sinc[:r * n], out=sinc[:r * n])
        np.divide(lower[::-1], sinc[r * n:], out=sinc[r * n:])
        del lower
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
        complex ones.  :meth:`convolve` gets the odd rows negated.
        """
        g = self.grid
        values = _float_or_complex(values)
        if values.shape != (g.num_midpoints,):
            raise SampleShapeError(
                f"expected {g.num_midpoints} midpoint samples, got {values.shape}"
            )
        even, odd = _pair_rows(values, g)

        def pairs(c0, c1, work):  # −f of the odd rows, in work's free half
            return even[c0:c1], np.negative(odd[c0:c1], out=work[:, g.N:2 * g.N])

        return self.convolve(pairs, real=not np.iscomplexobj(values))

    def convolve(self, pairs, real: bool) -> np.ndarray:
        """The N quadrature values from the polyphase rows of f.

        Pair c is the rows of residues 2c and 2r−1−2c, whose kernel rows are
        each other's mirror.  ``pairs(c0, c1, work)`` returns (even, odd),
        two (c1−c0, N) arrays holding f at the midpoints 2rq + 2c and −f at
        the midpoints 2rq + 2r−1−2c, q = 0..N−1, for c0 ≤ c < c1 (from
        :meth:`apply`, or :func:`fraclap.spectral.sine_pairs`); they may be
        views of ``work``, the (c1−c0) scratch rows this call lends, at least
        2N+2 floats wide when ``real``, else at least 2N complex, whose
        contents are used up by the call.  The producer allocates nothing.
        The pairs are transformed, multiplied by the table and summed a
        batch at a time, the odd products subtracted; the result never
        shares memory with the plan.
        """
        g = self.grid
        n, r = g.N, g.r
        m = self.fft_length // (2 * r)
        half = m // 2 + 1
        rev = slice((m - 1) // 2, 0, -1)
        if self._plan is not None:
            weights, table = self._plan
        else:
            # Without a cache, every array is dropped once used.  Weights
            # first: at N = 2^20, r = 1 this order measured 252 MiB peak RSS
            # against 272 MiB, because it decides which freed temporaries
            # glibc's heap keeps resident.
            weights = self._weights().reshape(n, 2 * r).T[0::2]
            table = self._kernel_table()
            if self.cache_kernels:
                # Kept weights only: a contiguous one-shot copy raised the
                # peak RSS at N = 2^20, r = 1 from 252 to 268 MiB.
                weights = np.ascontiguousarray(weights)
                self._plan = weights, table
        # Row pairs per batch.  A row has room for m transform points and
        # for a scratch row, 2N+2 floats or 2N complex; real rows are the
        # floats of their half-spectrum rows and are transformed in place
        # (numpy copies the overlapping input).
        width = max(half, n + 1) if real else max(m, 2 * n)
        k = max(1, min(r, _BATCH_POINTS // (2 * width)))
        buf = np.zeros((2 * k, width), dtype=complex)
        rows = buf.view(float) if real else buf
        spectra = buf[:, :half] if real else buf[:, :m]
        total = None
        for c0 in range(0, r, k):
            c1 = min(c0 + k, r)
            j = c1 - c0
            even, odd = pairs(c0, c1, rows[:j])
            # Odd rows first: ``even`` may share a scratch row with them.
            np.multiply(weights[c0:c1, ::-1], odd, out=rows[j:2 * j, :n])
            np.multiply(weights[c0:c1], even, out=rows[:j, :n])
            if c1 == r:  # a one-shot plan drops its weights, then its table
                del weights
            rows[:2 * j, n:m] = 0.0
            _transform_rows(np.fft.rfft if real else np.fft.fft,
                            rows[:2 * j, :m], spectra[:2 * j])
            spectra[:j, :half] *= table[0::2][c0:c1]
            spectra[j:2 * j, :half] *= table[::-2][c0:c1]
            if not real:  # T_ρ[m − k] = conj T_ρ[k] = T_{2r−1−ρ}[k]
                spectra[:j, half:] *= table[::-2][c0:c1, rev]
                spectra[j:2 * j, half:] *= table[0::2][c0:c1, rev]
            if c1 == r:
                del table
            for i in range(1, j):  # sum the batch's products in place
                spectra[0] += spectra[i]
            for i in range(j, 2 * j):  # the odd rows carry −f
                spectra[0] -= spectra[i]
            if total is None:
                total = spectra[0] if c1 == r else spectra[0].copy()
            else:
                total += spectra[0]
        if real:  # into row 1, which has room for m floats
            out = np.fft.irfft(total, n=m, out=rows[1, :m])
        else:
            out = np.fft.ifft(total, out=total)
        return out[:n] * self.scale


def fast_singular_integral(F: MidpointSamples, p: SingularParams) -> np.ndarray:
    """One-shot fast evaluation of the singular quadrature at all s_j.

    Equivalent to :func:`fraclap.quadrature.singular_integral_direct` to
    near machine precision, at O(rN log N) cost.
    """
    return FastConvolver(F.grid, p, cache_kernels=False).apply(F.values)

"""O(rN log N) evaluation of the two-sided singular quadrature.

In integer index units (the factor h^{β+γ+1}/((β+1)(γ+1)) is applied once
at the end) the quadrature value at output node j is

    A_j = Σ_n  a_n · M(n − (2j+1)r),   n = 0..2rN−1,

where a_n is f at midpoint n times its sin^β weight, and

    M(a) = sinc^γ(h(a+½)) · (sgn(a+1)|a+1|^{γ+1} − sgn(a)|a|^{γ+1})

is the moving-singularity weight, evaluated for a ≥ 0 only by
M(a) = M(−a−1).  With κ[t] = M(t+r−1), A_j = (a ⊛ κ)[2rj], and a cyclic
convolution of length P = 2r·m, m the smallest 5-smooth integer ≥ 2N−1,
does not alias.  Only every 2r-th entry is read, so it splits into 2r
polyphase parts: with n = 2rq + ρ, a^ρ_q = a_{2rq+ρ} and
κ_ρ[q] = κ[(2rq − ρ) mod P], A_j = Σ_ρ (a^ρ ⊛_m κ_ρ)[j].

The parts go in pairs, residues 2c and 2r−1−2c, whose kernel spectra are
T_{2c} and conj T_{2c}, since M is real and κ_{2r−1−ρ}[q] = κ_ρ[−q].  Pairs
are transformed, multiplied and summed a batch at a time, and one inverse
of length m gives A.  A row longer than ``_CALL_POINTS`` is an (m1, m2)
grid, transformed by the four-step FFT (Bailey, J. Supercomputing 4, 1990)
with its spectrum kept in grid order, so nothing is transposed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
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


# Points of one pocketfft call, whose scratch grows with its points.
_CALL_POINTS = 1 << 17
# Grid-row points twiddled and transformed while cached: 2^14 beat 2^12, 2^16.
_TWIDDLE_POINTS = 1 << 14


def _transform_rows(transform, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``transform`` along axis 1 of ``a`` into ``out``, at most
    ``_CALL_POINTS`` points of ``a`` per call."""
    rows = max(1, _CALL_POINTS // a[0].size)
    for i in range(0, a.shape[0], rows):
        transform(a[i:i + rows], axis=1, out=out[i:i + rows])
    return out


def _divisor_below_root(n: int) -> int:
    """The largest divisor of n that is at most √n."""
    return next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)


def _row_grid(m: int) -> tuple:
    """The grid of a row of length m: m1 = m, m2 = 1 and no twiddles up to
    ``_CALL_POINTS``, else m1 the largest divisor of m that is at most √m."""
    if m <= _CALL_POINTS:
        return m, 1, None
    m1 = _divisor_below_root(m)
    return _grid(m1, m // m1)


def _grid(m1: int, m2: int) -> tuple:
    """(m1, m2, twiddles) of the (m1, m2) grid of a row of length m = m1·m2.

    With w = e^{−2πi/m} and j2 = b·p + q, b the largest divisor of m2 at
    most √m2, the twiddle w^{k1·j2} is the product of two factors,
    w^{k1·b·p} (m1, m2/b, 1) and w^{k1·q} (m1, 1, b): no (m1, m2) table is
    formed.  Their exponents are below m, exact in int64.
    """
    m = m1 * m2
    b = _divisor_below_root(m2)
    k1 = np.arange(m1)[:, None]
    outer = np.exp(k1 * np.arange(0, m2, b) * (-2j * np.pi / m))
    inner = np.exp(k1 * np.arange(b) * (-2j * np.pi / m))
    return m1, m2, (outer[:, :, None], inner[:, None, :])


def _twiddle_block(twiddles, k0: int, rows: int) -> np.ndarray:
    """The twiddles w^{k1·j2} of grid rows k0 ≤ k1 < k0 + rows, (rows, m2)."""
    outer, inner = twiddles
    product = outer[k0:k0 + rows] * inner[k0:k0 + rows]
    return product.reshape(len(product), -1)


def _grid_forward(rows: np.ndarray, spectra: np.ndarray, real: bool,
                  grid) -> None:
    """The spectra of ``rows`` into ``spectra``, both (rows, ·, m2) grids
    in the module's grid order: row x is read as x[j1·m2 + j2], and bin
    k1 + m1·k2 of its spectrum lands at [k1, k2].  A real row keeps the
    columns' ``rfft`` bins k1 ≤ m1/2."""
    m2, twiddles = grid[1:]
    _transform_rows(np.fft.rfft if real else np.fft.fft, rows, spectra)
    if twiddles is not None:  # blocks of grid rows, while they are cached
        step = max(1, _TWIDDLE_POINTS // m2)
        for k0 in range(0, spectra.shape[1], step):
            block = spectra[:, k0:k0 + step]
            block *= _twiddle_block(twiddles, k0, block.shape[1])
            np.fft.fft(block, axis=2, out=block)


def _grid_inverse(spectrum: np.ndarray, out: np.ndarray, real: bool,
                  grid) -> np.ndarray:
    """The inverse of :func:`_grid_forward` for one spectrum, into ``out``
    (m floats) when ``real``, else in place; returns the row."""
    m1, m2, twiddles = grid
    spectra = spectrum.reshape(1, -1, m2)
    if twiddles is not None:
        step = max(1, _TWIDDLE_POINTS // m2)
        for k0 in range(0, spectra.shape[1], step):
            block = spectra[:, k0:k0 + step]
            np.fft.ifft(block, axis=2, out=block)
            block *= _twiddle_block(twiddles, k0, block.shape[1]).conj()
    if real:
        return np.fft.irfft(spectra[0], n=m1, axis=0,
                            out=out.reshape(m1, m2)).reshape(-1)
    return np.fft.ifft(spectra[0], axis=0, out=spectra[0]).reshape(-1)


# Points of one batch of row pairs, the least that ran as fast as larger
# batches.  The batch size sets the order in which the products are summed
# into one row, so changing it changes the low bits of every result.
_BATCH_POINTS = 1 << 14


def _mirrored(half: np.ndarray, m1: int) -> np.ndarray:
    """Grid rows m1 − k1, m1/2 < k1 < m1, both axes reversed, of the half
    spectra ``half`` (·, m1//2+1, m2): by T_ρ[m − k] = conj T_ρ[k], the
    conjugates of the upper grid rows of their full spectra."""
    return half[:, (m1 - 1) // 2:0:-1, ::-1]


class FastConvolver:
    """Fast-convolution plan for fixed (grid, β, γ): the sin^β weights and
    the kernel table.

    With ``cache_kernels=True`` the plan is built on the first call and
    kept, its weights signed per float of a lent row so that one product
    weights a batch.  With ``cache_kernels=False`` nothing is kept, and each
    batch builds the kernel rows of its pairs, so a one-shot call never
    holds the rows of all pairs.  Kept and one-shot plans give the same
    bits.  A warm call allocates one batch buffer (``_BATCH_POINTS``), whose
    rows it lends to the producer of the pairs, and arrays of length O(N).
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

    def _kernel_rows(self, c0: int, c1: int, grid: tuple) -> np.ndarray:
        """Rows c0..c1−1 of the table: row c is T_{2c}, the rfft of κ_{2c},
        in the order of ``grid``, the row grid of :func:`_row_grid`.

        Only residues ρ = r + σ, σ = 0..r−1, are transformed: by
        M(a) = M(−a−1) they read M(σ) at q = 0, M(2r(q−1) + 2r−1−σ) for
        1 ≤ q < N and M(2r(m−q) + σ) for m−N < q < m, zero between.  Pair c
        takes ρ = 2c for c ≥ r/2, and for c < r/2 the conjugate of
        ρ = 2r−1−2c, since κ_{2r−1−ρ}[q] = κ_ρ[−q].
        """
        g, gamma = self.grid, self.params.gamma
        n, r, two_rn = g.N, g.r, g.num_midpoints
        m = self.fft_length // (2 * r)
        c = np.arange(c0, c1)[:, None]
        sigma = np.where(2 * c < r, r - 1 - 2 * c, 2 * c - r)
        # Pair c reads M at a = 2rq + σ and 2rq + 2r−1−σ, interleaved; the
        # last N mirror the first, so sin is taken below rN only.  A row has
        # room for m floats, where the rfft input goes without a copy.
        width = max(2 * n, m)
        if r == 1:  # a = 0..2N−1: the powers at a + 1 are those at a, shifted
            power = np.arange(two_rn + 1, dtype=float)
            power **= gamma + 1.0
            moving = np.diff(power)[None]
            del power
            a = np.arange(width, dtype=float)[None]
        else:
            a = np.empty((c1 - c0, width))
            np.add(np.arange(0, two_rn, 2 * r, dtype=float)[:, None],
                   np.hstack((sigma, 2 * r - 1 - sigma))[:, None],
                   out=a[:, :2 * n].reshape(c1 - c0, n, 2))
            moving = a[:, :2 * n] + 1.0
            moving **= gamma + 1.0
            moving -= a[:, :2 * n] ** (gamma + 1.0)
        x = a[:, :2 * n]
        x += 0.5
        x *= g.h  # h(a+½), divided in place
        lower = np.sin(x[:, :n])
        np.divide(lower, x[:, :n], out=x[:, :n])
        np.divide(lower[:, ::-1], x[:, n:], out=x[:, n:])
        del lower
        moving *= np.power(x, gamma, out=x)  # M(a)
        rows = a[:, :m]
        rows[:, 0] = moving[:, 0]
        rows[:, 1:n] = moving[:, 1:2 * n - 2:2]
        rows[:, n:m - n + 1] = 0.0
        rows[:, m - n + 1:] = moving[:, 2 * n - 2:0:-2]
        del moving, x
        m1, m2, _ = grid
        table = np.empty((c1 - c0, (m1 // 2 + 1) * m2), dtype=complex)
        _grid_forward(rows.reshape(-1, m1, m2),
                      table.reshape(-1, m1 // 2 + 1, m2), True, grid)
        conjugated = table[:max(0, (r + 1) // 2 - c0)]  # the pairs c < r/2
        np.conjugate(conjugated, out=conjugated)
        return table

    def _kernel_table(self, grid: tuple) -> np.ndarray:
        """The kept table, (2, r, m): rows [0, c] = T_{2c} and
        [1, c] = conj T_{2c}, full spectra in the order of ``grid``."""
        r = self.grid.r
        m1, m2, _ = grid
        h1 = m1 // 2 + 1
        half = self._kernel_rows(0, r, grid).reshape(r, h1, m2)
        table = np.empty((2, r, m1, m2), dtype=complex)
        table[0, :, :h1] = half
        np.conjugate(_mirrored(half, m1), out=table[0, :, h1:])
        np.conjugate(table[0], out=table[1])
        return table.reshape(2, r, m1 * m2)

    def _weights(self) -> np.ndarray:
        """The sin^β weights of the even residues, as (r, N) rows: row c
        holds those of the midpoints 2rq + 2c.

        The weight of midpoint n ≥ rN is that of 2rN−1−n, so only the lower
        half is evaluated, never sin near π, in blocks of about
        ``_BATCH_POINTS`` midpoints.
        """
        g, beta = self.grid, self.params.beta
        h, n, r = g.h, g.N, g.r

        def lower(k0: int, k1: int) -> np.ndarray:  # midpoints k0..k1−1
            w = _sinc(h * (np.arange(k0, k1) + 0.5)) ** beta
            w *= np.diff(np.arange(k0, k1 + 1, dtype=float) ** (beta + 1.0))
            return w

        h2 = n // 2
        even = np.empty((r, n))
        step = max(1, _BATCH_POINTS // (2 * r))
        for q0 in range(0, h2, step):  # the rows q < N/2 and their mirrors
            q1 = min(q0 + step, h2)
            block = lower(2 * r * q0, 2 * r * q1).reshape(q1 - q0, 2 * r)
            even[:, q0:q1] = block[:, 0::2].T
            even[:, n - q1:n - q0] = block[::-1, ::-2].T
        if n % 2:  # row (N−1)/2 straddles rN: residue ρ ≥ r mirrors 2r−1−ρ
            middle = lower(2 * r * h2, r * n)
            even[:, h2] = np.concatenate((middle, middle[::-1]))[0::2]
        return even

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The N quadrature values of f at all 2rN midpoints ``values``,
        float64 for real samples: :meth:`convolve` of the samples."""
        return self.convolve(MidpointSamples(values=values, grid=self.grid))

    def convolve(self, F) -> np.ndarray:
        """The N quadrature values of the integrand F, equal to the direct
        double sum to near machine precision; float64 when ``F.real``.

        F is :class:`fraclap.quadrature.MidpointSamples` or an integrand of
        :mod:`fraclap.spectral`.  ``F.pairs(c0, c1, work)`` gets the
        2(c1−c0) scratch rows this call lends, each at least 2N+2 floats
        wide when F is real, else 2N complex, and returns nothing.  It fills
        row c − c0 with f at the midpoints 2rq + 2c in slots [0, N) and −f
        at 2rq + 2r−1−2c in slot 2N−1−q, q = 0..N−1.  Every lent row is used
        up, so the producer need allocate nothing as long as its rows.  The
        result never shares memory with the plan.  An F built on another
        grid is a ParameterError, raised before any plan or buffer exists.
        """
        if F.grid != self.grid:
            raise ParameterError("samples were built for a different grid")
        g, real = self.grid, F.real
        n, r = g.N, g.r
        m = self.fft_length // (2 * r)
        m1, m2, _ = grid = _row_grid(m)
        h1 = m1 // 2 + 1
        half = h1 * m2
        # Row pairs per batch.  A row holds m transform points or a scratch
        # row; real rows are the floats of their half-spectrum rows.
        width = max(half, n + 1) if real else max(m, 2 * n)
        k = max(1, min(r, _BATCH_POINTS // (2 * width)))
        if self._plan is not None:
            weights, table = self._plan
        else:
            weights, table = self._weights(), None
            if self.cache_kernels:  # the signed multipliers of a row's floats
                weights = np.repeat(np.hstack((weights, -weights)), 2, axis=1)
                table = self._kernel_table(grid)
                self._plan = weights, table
        buf = np.zeros((2 * k, width), dtype=complex)
        rows = buf.view(float) if real else buf
        spectra = buf[:, :half] if real else buf[:, :m]
        grids = spectra.reshape(2 * k, -1, m2)
        row_grids = rows[:, :m].reshape(2 * k, m1, m2)
        if table is not None:  # the bins a row multiplies, the floats of f
            table = table[:, :, :spectra.shape[1]]
            lanes = rows[:, :2 * n] if real else buf[:, :2 * n].view(float)
            weights = weights[:, ::2] if real else weights
        total = None
        for c0 in range(0, r, k):
            c1 = min(c0 + k, r)
            j = c1 - c0
            F.pairs(c0, c1, rows[:2 * j])
            mirrors = rows[:j, 2 * n - 1:n - 1:-1]  # −f, the odd rows
            if table is not None:  # f·W and (−f)·(−W): the odd rows carry f
                lanes[:j] *= weights[c0:c1]
                rows[j:2 * j, :n] = mirrors
            else:
                np.multiply(weights[c0:c1, ::-1], mirrors,
                            out=rows[j:2 * j, :n])
                np.multiply(weights[c0:c1], rows[:j, :n], out=rows[:j, :n])
            if c1 == r:  # a one-shot plan drops its weights
                del weights
            rows[:2 * j, n:m] = 0.0
            _grid_forward(row_grids[:2 * j], grids[:2 * j], real, grid)
            if table is not None:  # even rows take T, odd rows conj T
                spectra[:j] *= table[0, c0:c1]
                spectra[j:2 * j] *= table[1, c0:c1]
                # Row by row in order: a complex reduce over 1-bin rows
                # would sum pairwise.
                batch = np.add.reduce(spectra[:2 * j].view(float),
                                      axis=0).view(complex)
            else:
                # Built after the transform's scratch is freed, for the peak RSS.
                kernel = self._kernel_rows(c0, c1, grid).reshape(j, h1, m2)
                # A complex row's grid rows k1 > m1/2 are the other kernel's.
                grids[:j, :h1] *= kernel
                if not real:
                    grids[j:2 * j, h1:] *= _mirrored(kernel, m1)
                np.conjugate(kernel, out=kernel)
                grids[j:2 * j, :h1] *= kernel
                if not real:
                    grids[:j, h1:] *= _mirrored(kernel, m1)
                del kernel
                for i in range(1, j):  # sum the batch's products in place
                    spectra[0] += spectra[i]
                for i in range(j, 2 * j):  # the odd rows carry −f
                    spectra[0] -= spectra[i]
                batch = spectra[0]
            if total is None:  # the next batch reuses a one-shot row
                total = batch.copy() if c1 < r and table is None else batch
            else:
                total += batch
        # A real row goes into row 1, which has room for m floats.
        return _grid_inverse(total, rows[1, :m], real, grid)[:n] * self.scale


def fast_singular_integral(F: MidpointSamples, p: SingularParams) -> np.ndarray:
    """One-shot fast evaluation of the singular quadrature at all s_j,
    equal to :func:`fraclap.quadrature.singular_integral_direct` to near
    machine precision."""
    return FastConvolver(F.grid, p, cache_kernels=False).apply(F.values)

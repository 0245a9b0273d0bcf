"""The quadrature integrand f(s) = sin(s)·u_ss + 2cos(s)·u_s at the 2rN
midpoints, by either of two routes:

* :func:`f_from_analytic` — from caller-supplied u_s and u_ss, as an
  :class:`AnalyticIntegrand`;
* :func:`f_from_samples` — from u at the N output nodes only, as a
  :class:`SampledIntegrand`.  The samples fix a cosine series
  u = Σ_{k<N} a_k cos(ks) exactly, which makes f the sine series

      f = Σ_{m=1}^{N} b_m sin(ms),   b_m = −½(m²−1)(a_{m−1} − a_{m+1}),

  with a_N = a_{N+1} = 0; u_s and u_ss are never formed.

Neither route stores f.  Its ``pairs`` write the row pairs of the fast
convolution (:mod:`fraclap.fastconv`) into rows the caller lends, and its
``values`` put f in midpoint order.  Real u gives float64 f throughout.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError, SampleShapeError
from .grid import GridSpec
from .quadrature import _float_or_complex, _pair_rows

__all__ = [
    "AnalyticIntegrand",
    "SampledIntegrand",
    "bin_twiddles",
    "coefficients_from_samples",
    "derivatives_at_midpoints",
    "f_from_analytic",
    "f_from_samples",
]

# Midpoints per block of AnalyticIntegrand: smaller blocks pay more in
# per-block calls, and 2^11 to 2^14 peak alike.
_ANALYTIC_BLOCK = 2**12


def coefficients_from_samples(u_nodes) -> np.ndarray:
    """Cosine coefficients a_k, k = 0..N−1, of u from its N samples
    ``u_nodes`` at s_j = (2j+1)π/(2N), so that Σ_k a_k cos(k s_j) = u_j.

    Real samples give float64 a_k.  Every a_k below machine epsilon times
    max|a_k| is zeroed (a Krasny filter), because f weights a_k by up to k².
    """
    u_nodes = _float_or_complex(u_nodes)
    if u_nodes.ndim != 1 or len(u_nodes) == 0:
        raise SampleShapeError("u_nodes must be a nonempty vector")
    n = len(u_nodes)
    real = not np.iscomplexobj(u_nodes)
    mirrored = np.concatenate([u_nodes, u_nodes[::-1]])
    spectrum = np.fft.rfft(mirrored) if real else np.fft.fft(mirrored, out=mirrored)
    a = spectrum[:n] * (np.exp(-0.5j * np.pi / n * np.arange(n)) / n)
    if real:  # the a_k of a real u are real: drop the round-off imaginary parts
        a = np.ascontiguousarray(a.real)
    a[0] *= 0.5
    magnitude = np.abs(a)
    a[magnitude < np.finfo(float).eps * magnitude.max()] = 0.0
    return a


def bin_twiddles(g: GridSpec, c0: int = 0, c1: int | None = None,
                 out=None) -> np.ndarray:
    """The multipliers of the folded bins of rows c0..c1−1 (``c1`` defaults
    to r), as a (c1−c0, 2N) table, in ``out`` if given.

    Slot k multiplies slot k of :class:`SampledIntegrand`'s bin row: the
    twiddle t_m = i·e^{iπm(4c+1)/(2M)}/r of row c and mode m (M = 2rN) at
    slot m, its conjugate at 2N − m for m < N, and conj t_N at slot 0.  An
    ``out`` of N+1 columns gets slots 0..N only, all a real row reads.
    """
    n, c1 = g.N, g.r if c1 is None else c1
    if out is None:
        out = np.empty((c1 - c0, 2 * n), dtype=complex)
    t = out[:, 1:n + 1]
    c = np.arange(c0, c1)[:, None]
    # m(4c+1) < 2M is exact in float64: no integer phase table is needed.
    np.multiply(np.arange(1, n + 1), 4 * c + 1, out=t.imag)
    t.imag *= 0.5 * np.pi / g.num_midpoints
    t.real = 0.0
    np.exp(t, out=t)
    t *= 1j / g.r
    np.conjugate(t[:, -1], out=out[:, 0])
    if out.shape[1] > n + 1:
        np.conjugate(t[:, -2::-1], out=out[:, n + 1:])
    return out


class SampledIntegrand:
    """f = Σ_{m=1}^{N} b_m sin(ms) from the N cosine coefficients ``a`` of
    u, built by :func:`f_from_samples`; ``real`` tells whether f is float64.

    Makhoul's DST-III (IEEE Trans. ASSP 28, 1980) sums f at the midpoints
    by an IFFT of length M = 2rN with only 2N nonzero bins, so it splits
    into r IFFTs of length 2N with no cross-row pass (Bailey's four-step
    FFT, J. Supercomputing 4, 1990): row c takes the bins folded with
    stride r times the twiddles of :func:`bin_twiddles`.  Real ``a`` gives
    Hermitian rows, each one ``irfft``.

    The instance keeps one row of B_m = −(M/2)·b_m in :func:`bin_twiddles`'
    slot order.  A kept ``twiddles`` table, ``bin_twiddles(grid)`` and no
    other, multiplies it in one product; without one the twiddles are
    computed in place in the bins.  Both give the same bits.
    """

    def __init__(self, a, grid: GridSpec, twiddles=None):
        a = _float_or_complex(a)
        if a.shape != (grid.N,):
            raise SampleShapeError(
                f"expected {grid.N} node samples or cosine coefficients, "
                f"got {a.shape}"
            )
        n = grid.N
        if twiddles is not None and np.shape(twiddles) != (grid.r, 2 * n):
            raise ParameterError("twiddles are not bin_twiddles(grid)")
        self.grid, self._twiddles = grid, twiddles
        self.real = not np.iscomplexobj(a)
        row = np.empty(n + 1 if self.real or twiddles is None else 2 * n,
                       a.dtype)
        bins = row[1:n + 1]
        bins[:] = a
        bins[:-2] -= a[2:]  # a_{m−1} − a_{m+1}
        m = np.arange(1, n + 1)
        bins *= 0.25 * grid.num_midpoints * (m * m - 1.0)  # B_m = −(M/2)·b_m
        row[0] = bins[-1]
        if len(row) > n + 1:
            row[n + 1:] = bins[-2::-1]
        self._row = row

    def pairs(self, c0: int, c1: int, work) -> None:
        """Row pairs c0..c1−1 for
        :meth:`fraclap.fastconv.FastConvolver.convolve`, in the first c1−c0
        rows of ``work``, all by one transform call.

        Row c holds f at the midpoints 2rq + 2c in its first N slots and,
        reversed, −f at 2rq + 2r−1−2c in its last N, q = 0..N−1.  ``work``
        is the caller's 2(c1−c0) scratch rows, at least 2N+2 floats wide
        when real and 2N complex otherwise; the rows past c1−c0 hold the
        bins and are free again on return.
        """
        n, row = self.grid.N, self._row
        j = c1 - c0
        # Bins apart from f: the transform copies an input overlapping its output.
        spectra = (work[j:2 * j, :2 * n + 2].view(complex) if self.real
                   else work[j:2 * j, :2 * n])
        tw = (bin_twiddles(self.grid, c0, c1, out=spectra)
              if self._twiddles is None else self._twiddles[c0:c1])
        np.multiply(row, tw[:, :len(row)], out=spectra[:, :len(row)])
        if len(row) < spectra.shape[1]:  # one-shot complex: bins 2N − m
            np.multiply(row[n - 1:0:-1], tw[:, n + 1:], out=spectra[:, n + 1:])
        spectra[:, n] += spectra[:, 0]  # bin N takes both terms
        spectra[:, 0] = 0.0
        if self.real:
            np.fft.irfft(spectra, n=2 * n, axis=1, out=work[:j, :2 * n])
        else:
            np.fft.ifft(spectra, axis=1, out=work[:j, :2 * n])

    @property
    def values(self) -> np.ndarray:
        """f at all 2rN midpoints, in midpoint order."""
        g, n = self.grid, self.grid.N
        work = np.empty((2, 2 * n + 2 if self.real else 2 * n),
                        dtype=float if self.real else complex)
        for c in range(g.r):  # one pair at a time, through one pair of rows
            self.pairs(c, c + 1, work)
            if c == 0:  # f goes where the first transform's scratch was freed
                f = np.empty(g.num_midpoints, dtype=work.dtype)
                f_even, f_odd = _pair_rows(f, g)
            f_even[c] = work[0, :n]
            np.negative(work[0, 2 * n - 1:n - 1:-1], out=f_odd[c])
        return f


def derivatives_at_midpoints(a, g: GridSpec) -> np.ndarray:
    """f at all 2rN midpoints from the N cosine coefficients ``a`` of u.

    The name stays, though f is returned, because the benchmark's tracer
    wraps the function by it."""
    return SampledIntegrand(a, g).values


class AnalyticIntegrand:
    """f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) from the ``us`` and ``uss`` of
    :func:`f_from_analytic`, never stored: :meth:`pairs` and :attr:`values`
    evaluate them anew.  ``real`` tells whether f is float64.
    """

    def __init__(self, us: Callable, uss: Callable, grid: GridSpec):
        self.us, self.uss, self.grid = us, uss, grid
        s = np.array([0.5 * grid.h])  # the dtype of f at midpoint 0 decides f's
        self.real = not any(np.iscomplexobj(d(s)) for d in (us, uss))

    def _fill(self, c0: int, c1: int, even, mirror) -> None:
        """f at the even members n = 2rq + 2c, c0 ≤ c < c1, into ``even`` and
        −f at their mirrors 2rN−1−n into ``mirror``, both (c1−c0, N) with n
        in column q, in blocks of whole columns.

        sin and cos are taken below π/2 only and mirrored, as the plan's
        weights are, and each s is formed integer first, as in
        :func:`fraclap.grid.midpoint_nodes`.
        """
        g = self.grid
        n_mid, half_h = g.num_midpoints, 0.5 * g.h
        step = max(1, _ANALYTIC_BLOCK // (c1 - c0))
        for q0 in range(0, g.N, step):
            q1 = min(q0 + step, g.N)
            n = (2 * g.r * np.arange(q0, q1, dtype=np.int64)
                 + 2 * np.arange(c0, c1, dtype=np.int64)[:, None]).ravel()
            upper = n >= n_mid // 2
            s = (2 * n + 1) * half_h
            t = (2 * n_mid - 1 - 2 * n) * half_h  # the mirrors
            low = np.where(upper, t, s)
            sin, cos = np.sin(low), np.cos(low)
            del low
            cos *= 2.0
            np.negative(cos, out=cos, where=upper)  # 2cos(π−s) = −2cos(s)
            shape = (c1 - c0, q1 - q0)
            np.add((sin * np.asarray(self.uss(s))).reshape(shape),
                   (cos * np.asarray(self.us(s))).reshape(shape),
                   out=even[:, q0:q1])
            np.negative(cos, out=cos)
            block = mirror[:, q0:q1]
            np.add((sin * np.asarray(self.uss(t))).reshape(shape),
                   (cos * np.asarray(self.us(t))).reshape(shape), out=block)
            np.negative(block, out=block)

    def pairs(self, c0: int, c1: int, work) -> None:
        """Row pairs c0..c1−1 for :meth:`fraclap.fastconv.FastConvolver.convolve`,
        in the layout of :meth:`SampledIntegrand.pairs`."""
        n = self.grid.N
        self._fill(c0, c1, work[:c1 - c0, :n], work[:c1 - c0, n:2 * n])

    @property
    def values(self) -> np.ndarray:
        """f at all 2rN midpoints, in midpoint order (evaluated anew)."""
        g = self.grid
        f = np.empty(g.num_midpoints, dtype=float if self.real else complex)
        even, odd = _pair_rows(f, g)
        self._fill(0, g.r, even, odd[:, ::-1])  # column q: the mirrors
        np.negative(odd, out=odd)  # the odd rows back from −f
        return f


def f_from_analytic(us: Callable, uss: Callable, g: GridSpec) -> AnalyticIntegrand:
    """f of the analytic derivatives ``us`` and ``uss``, callables on (0, π),
    as an :class:`AnalyticIntegrand` that runs them whenever f is read.

    Here they run only at midpoint 0, whose dtype decides f's.  Later they
    see blocks of midpoints, each followed by their mirrors about π/2, so
    they must be pointwise, and every block must give the dtype of the
    first.  f is the same to the bit as one evaluation on all 2rN
    midpoints.  A caller that reads f more than once keeps
    ``MidpointSamples(values=F.values, grid=g)``.
    """
    return AnalyticIntegrand(us, uss, g)


def f_from_samples(u_nodes, g: GridSpec, twiddles=None) -> SampledIntegrand:
    """f of u sampled at the N output nodes, as a :class:`SampledIntegrand`
    of :func:`coefficients_from_samples`.

    A kept ``bin_twiddles(g)`` table ``twiddles`` gives the same bits as
    none; a table of another shape is a ParameterError.  A caller that reads
    f more than once keeps ``MidpointSamples(values=F.values, grid=g)``.
    """
    return SampledIntegrand(coefficients_from_samples(u_nodes), g, twiddles)

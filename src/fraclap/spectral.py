"""Building the quadrature integrand f(s) = sin(s)·u_ss + 2cos(s)·u_s.

Mapping x = L·cot(s) turns the second-derivative kernel on the real line
into an integral over (0, π) whose smooth factor is
f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s).  This module produces f at the
2rN quadrature midpoints by either of two routes:

* :func:`f_from_analytic` — evaluate caller-supplied u_s, u_ss directly.
  It returns an :class:`AnalyticIntegrand`, which evaluates them only when
  f is read: its row pairs go straight into the fast convolution, and f is
  put in midpoint order only when ``.values`` is asked for;
* :func:`f_from_samples` — given only u at the N output nodes, expand u in
  a cosine series and sum f, a sine series, when it is read, as the row
  pairs or the ``.values`` of a :class:`SampledIntegrand`.

On the shifted nodes s_j = (2j+1)π/(2N) the even extension of u across
s = π has no Nyquist part, so the N samples fix a cosine series
u = Σ_{k<N} a_k cos(ks) exactly (a DCT-II of the samples).  A Krasny filter
zeroes the round-off-level a_k.  The product rules for sin(s)·cos(ks) and
cos(s)·sin(ks) then make f a sine series on the modes 1..N,

    f = Σ_{m=1}^{N} b_m sin(ms),   b_m = −½(m²−1)(a_{m−1} − a_{m+1}),

with a_N = a_{N+1} = 0.  A DST-III (Makhoul, IEEE Trans. ASSP 28, 1980;
mode m in bins m and 2rN − m of a spectrum of length 2rN) sums it at every
midpoint s_n = (2n+1)π/(4rN).  Only 2N of those bins are nonzero, so
:meth:`SampledIntegrand.pairs` folds them with stride r and sums f by r
IFFTs of length 2N instead of one of length 2rN.  Each of its rows is one
row pair of the fast convolution (:mod:`fraclap.fastconv`), which
:meth:`fraclap.operator.FractionalLaplacian.apply` consumes as they come;
only :attr:`SampledIntegrand.values` puts f into midpoint order.  u_s and
u_ss are never formed.

Real u stays real throughout: its a_k come from the ``rfft`` of the
mirrored samples, its sine-series bins are float64, the row spectra that
sum f are Hermitian, and each row is one ``irfft`` of length 2N from bins
0..N.  Complex u runs the same steps in complex arithmetic.

The shifted node set never contains 0 or π, so the series machinery stays
clear of the map's poles.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SampleShapeError
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

# Members per block of AnalyticIntegrand, each evaluated with its mirror.
# Smaller blocks pay more for the per-block calls.  Alone in a process, a
# one-shot apply at N = 2^20, r = 1 peaked at 150.6 MiB (VmHWM) with blocks
# of 2^11 to 2^14 alike.
_ANALYTIC_BLOCK = 2**12


def coefficients_from_samples(u_nodes) -> np.ndarray:
    """Cosine coefficients a_k, k = 0..N−1, of u from its N node samples.

    ``u_nodes`` holds u at s_j = (2j+1)π/(2N).  With X the FFT of the
    mirrored samples [u, u reversed] (u's even extension across s = π),
    a_k = e^{−ikπ/(2N)}·X_k/N with a_0 halved, and Σ_k a_k cos(k s_j) = u_j.
    Real samples give real (float64) a_k, from half of X.

    The coefficients are Krasny-filtered: every a_k with |a_k| below machine
    epsilon times max|a_k| is zeroed, because f weights a_k by up to k²,
    which would lift round-off-level coefficients at high k into visible
    noise.
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
    """The folded bins' multipliers of rows c0..c1−1, as full rows.

    Slot k of a row multiplies slot k of the bin row of
    :class:`SampledIntegrand`: the fold twiddle t_m = i·e^{iπm(4c+1)/(2M)}/r
    of row c and mode m at slot m, 1 ≤ m ≤ N, conj t_m at 2N − m for m < N,
    and conj t_N at slot 0 for mode N's second term, added into bin N
    (M = 2rN; ``c1`` defaults to r).  Returns a (c1−c0, 2N) table (in
    ``out``); an ``out`` of N+1 columns gets slots 0..N only, all a real
    row reads.
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
    u, built by :func:`f_from_samples` and never stored: :meth:`pairs` sums
    the fast convolution's row pairs of f, and :attr:`values` puts f in
    midpoint order.  ``real`` tells whether f is float64.

    With M = 2rN, the DST-III of Makhoul (1980) sums f at the midpoints
    s_n = (2n+1)π/(2M) as w = (M/2)·IFFT_M(W), where bin m of W is
    −i·b_m·e^{iπm/(2M)} and bin M − m adds i·b_m·e^{−iπm/(2M)}; then
    f_{2n} = w_n and f_{2n+1} = −w_{M−1−n}.  Only 2N of the M bins are
    nonzero, so the long IFFT splits into r short ones with no cross-row
    pass (the four-step FFT of Bailey, J. Supercomputing 4, 1990): row c
    holds w_{rq+c}, q = 0..2N−1, and is the IFFT of length 2N of W folded
    with stride r, bin m going to bin m mod 2N with the twiddle t_m of
    :func:`bin_twiddles` (which carries the i and the 1/r of the shorter
    IFFT).  Bins m and M − m land on bins m and 2N − m, as B_m·t_m and
    B_m·conj(t_m) with B_m = −(M/2)·b_m, which has the dtype of ``a``;
    bin N takes both.  Row c is the convolution's row pair c: its first
    half is f at the midpoints 2rq + 2c and its second half, reversed, −f
    at 2rq + 2r−1−2c, q = 0..N−1.

    Real ``a`` gives Hermitian row spectra (bin 2N − m is the conjugate of
    bin m), so each row is one ``irfft`` from bins 0..N, and the rows are
    float64.

    The instance keeps the B_m, not ``a``, as one row in
    :func:`bin_twiddles`' slot order (B_N at 0, B_m at m, and at 2N − m if
    kept and complex), which a batch multiplies by its rows of
    ``twiddles``, that (r, 2N) table, in one product.  Without it the
    twiddles are computed in place in the bins, and slots 0..N and their
    reversed view multiply them, bins first as kept calls do: same bits.
    """

    def __init__(self, a, grid: GridSpec, twiddles=None):
        a = _float_or_complex(a)
        if a.shape != (grid.N,):
            raise SampleShapeError(
                f"expected {grid.N} node samples or cosine coefficients, "
                f"got {a.shape}"
            )
        n = grid.N
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
        :meth:`fraclap.fastconv.FastConvolver.convolve`.

        Fills the first c1−c0 rows of ``work``, the caller's 2(c1−c0)
        scratch rows (at least 2N+2 floats wide when real, at least 2N
        complex otherwise), with the pair rows c0..c1−1.  The bins of pair c
        are built in scratch row c1−c0+c (a real row's N+1 bins read as
        complex), and its IFFT writes f into row c, so no transform copies
        its input; the bins are used up, and the rows past c1−c0 are free
        again.  All rows go through one pocketfft call, which ``convolve``
        keeps within its call budget by the rows it lends.
        """
        n, row = self.grid.N, self._row
        j = c1 - c0
        # The bins go in the odd rows, f in the even ones: an input that
        # overlapped its output would be copied by the transform first.
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
        """f at all 2rN midpoints, in midpoint order, the odd rows negated
        back from the −f of :meth:`pairs`."""
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
    """f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) from analytic u_s and u_ss.

    Built by :func:`f_from_analytic`, which documents the callables' rules.
    f is never stored: :meth:`pairs` writes the fast convolution's row pairs
    into the rows it lends, and :attr:`values` puts f in midpoint order.
    Both evaluate ``us`` and ``uss`` anew, on the same blocks of
    :meth:`_fill`.  ``real`` tells whether f is float64.
    """

    def __init__(self, us: Callable, uss: Callable, grid: GridSpec):
        self.us, self.uss, self.grid = us, uss, grid
        s = np.array([0.5 * grid.h])  # the dtype of f at midpoint 0 decides f's
        self.real = not any(np.iscomplexobj(d(s)) for d in (us, uss))

    def _fill(self, c0: int, c1: int, even, mirror) -> None:
        """f at the even members n = 2rq + 2c, c0 ≤ c < c1, into ``even`` and
        −f at their mirrors 2rN−1−n into ``mirror``, both (c1−c0, N) with n
        in column q, in blocks of whole columns of about ``_ANALYTIC_BLOCK``
        points.

        sin and cos are taken on the member below rN only: the other takes
        sin(s) and −cos(s), since sin(π−s) = sin(s) and cos(π−s) = −cos(s),
        as the plan's weights do.  Each s is formed integer first, as
        :func:`fraclap.grid.midpoint_nodes` forms it.
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
        """Row pairs c0..c1−1 for :meth:`fraclap.fastconv.FastConvolver.convolve`.

        Row c of ``work`` takes f at the midpoints 2rq + 2c in its first N
        slots and −f at their mirrors in the next N, so the odd row
        2rq + 2r−1−2c is those slots reversed, as in
        :meth:`SampledIntegrand.pairs`.
        """
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
    """The integrand f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) of analytic
    derivatives, as an :class:`AnalyticIntegrand` that evaluates it when read.

    ``us`` and ``uss`` are callables on (0, π).  They run when f is read:
    once over all 2rN midpoints per
    :meth:`fraclap.operator.FractionalLaplacian.apply`, and once per read of
    ``.values``, so a caller that reads f more than once keeps
    ``MidpointSamples(values=F.values, grid=g)``.  Here they run only at
    midpoint 0, and the dtype of f there decides that of f.  Later they see
    blocks of about ``_ANALYTIC_BLOCK`` midpoints, each followed by their
    mirrors about π/2, so they must be pointwise: a value may depend only
    on its own s, and every block must give the dtype of the first.  sin
    and cos are evaluated on the lower half of the midpoints
    only, and each s is formed integer first, so f is the same to the bit
    as one evaluation on all 2rN midpoints with the lower half's sin and
    cos mirrored; but neither those midpoints nor the callables'
    temporaries on them ever exist at full length.  Real derivatives give
    float64 f.
    """
    return AnalyticIntegrand(us, uss, g)


def f_from_samples(u_nodes, g: GridSpec, twiddles=None) -> SampledIntegrand:
    """f of u sampled at the N output nodes only, as a
    :class:`SampledIntegrand` of :func:`coefficients_from_samples`.

    ``twiddles``, a kept (r, 2N) :func:`bin_twiddles` table, gives the same
    bits as twiddles computed in place.  f is summed per ``apply`` and per
    read of ``.values``, so a caller that reads f more than once keeps
    ``MidpointSamples(values=F.values, grid=g)``.
    """
    return SampledIntegrand(coefficients_from_samples(u_nodes), g, twiddles)

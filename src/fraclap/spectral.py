"""Building the quadrature integrand f(s) = sin(s)·u_ss + 2cos(s)·u_s.

Mapping x = L·cot(s) turns the second-derivative kernel on the real line
into an integral over (0, π) whose smooth factor is
f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s).  This module produces f at the
2rN quadrature midpoints by either of two routes:

* :func:`f_from_analytic` — evaluate caller-supplied u_s, u_ss directly;
* :func:`f_from_samples` — given only u at the N output nodes, expand u in
  a cosine series and sum f, a sine series, at the midpoints.

On the shifted nodes s_j = (2j+1)π/(2N) the even extension of u across
s = π has no Nyquist part, so the N samples fix a cosine series
u = Σ_{k<N} a_k cos(ks) exactly (a DCT-II of the samples).  A Krasny filter
zeroes the round-off-level a_k.  The product rules for sin(s)·cos(ks) and
cos(s)·sin(ks) then make f a sine series on the modes 1..N,

    f = Σ_{m=1}^{N} b_m sin(ms),   b_m = −½(m²−1)(a_{m−1} − a_{m+1}),

with a_N = a_{N+1} = 0.  A DST-III (Makhoul, IEEE Trans. ASSP 28, 1980;
mode m in bins m and 2rN − m of a spectrum of length 2rN) sums it at every
midpoint s_n = (2n+1)π/(4rN).  Only 2N of those bins are nonzero, so
:func:`sine_pairs` folds them with stride r and sums f by r IFFTs of length
2N instead of one of length 2rN.  Each of its rows is one row pair of the
fast convolution (:mod:`fraclap.fastconv`), which
:meth:`fraclap.operator.FractionalLaplacian.apply_to_samples` consumes as
they come; :func:`derivatives_at_midpoints` puts them into midpoint
order.  u_s and u_ss are never formed.

Real u stays real throughout: its a_k come from the ``rfft`` of the
mirrored samples, its sine-series bins are float64, the row spectra that
sum f are Hermitian, and each row is one ``irfft`` of length 2N from bins
0..N.  Complex u runs the same steps in complex arithmetic.

The shifted node set never contains 0 or π, so the series machinery stays
clear of the map's poles.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .errors import ParameterError, SampleShapeError
from .fastconv import _pair_rows, _transform_rows
from .grid import GridSpec
from .quadrature import MidpointSamples, _float_or_complex

__all__ = [
    "bin_twiddles",
    "coefficients_from_samples",
    "derivatives_at_midpoints",
    "f_from_analytic",
    "f_from_samples",
    "sine_pairs",
    "sine_twiddles",
]

# Lower-half midpoints per block of f_from_analytic, whose mirror block
# follows.  Smaller blocks pay more for the per-block calls.  The peak RSS
# of a one-shot apply at N = 2^20, r = 1 sat at 252 MiB with 2^11 or 2^12,
# but read 268 MiB with 2^13 or 2^14, and also when the block's index
# array was freed before its s was used: glibc's heap keeps the freed
# temporaries resident in a layout that depends on the order of these
# small allocations.  Scaling the block's cos in place for its mirror read
# 199 MiB, against 204.5 MiB when the mirror formed −2cos anew.
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


def sine_twiddles(g: GridSpec, c0: int = 0, c1: int | None = None,
                  out=None) -> np.ndarray:
    """Fold twiddles i·e^{iπm(4c+1)/(2M)}/r of modes m = 1..N, rows c0..c1−1.

    M = 2rN; ``c1`` defaults to r.  Returns a (c1−c0, N) table (in ``out``).
    """
    c = np.arange(c0, g.r if c1 is None else c1)[:, None]
    m = np.arange(1, g.N + 1)
    if out is None:
        out = np.empty((len(c), g.N), dtype=complex)
    # m(4c+1) < 2M is exact in float64: no integer phase table is needed.
    np.multiply(m, 4 * c + 1, out=out.imag)
    out.imag *= 0.5 * np.pi / g.num_midpoints
    out.real = 0.0
    np.exp(out, out=out)
    out *= 1j / g.r
    return out


def bin_twiddles(g: GridSpec, c0: int = 0, c1: int | None = None,
                 out=None) -> np.ndarray:
    """The folded bins' multipliers of rows c0..c1−1, as full rows.

    Slot k of a row multiplies bin k of its IFFT of length 2N: t_k of
    :func:`sine_twiddles` for 1 ≤ k ≤ N, conj t_m at 2N − m for m < N, and
    conj t_N at slot 0, whose bin is zero, for mode N's second term, which
    folds onto bin N too.  Returns a (c1−c0, 2N) table (in ``out``); an
    ``out`` of N+1 columns gets slots 0..N only, all a real row reads.
    """
    n, c1 = g.N, g.r if c1 is None else c1
    if out is None:
        out = np.empty((c1 - c0, 2 * n), dtype=complex)
    t = sine_twiddles(g, c0, c1, out=out[:, 1:n + 1])
    np.conjugate(t[:, -1], out=out[:, 0])
    if out.shape[1] > n + 1:
        np.conjugate(t[:, -2::-1], out=out[:, n + 1:])
    return out


def sine_pairs(a, g: GridSpec, twiddles=None) -> Callable:
    """The convolution's row pairs of f, as a function that sums them.

    ``a`` holds the N cosine coefficients of u.  With M = 2rN, the DST-III
    of Makhoul (1980) sums f = Σ_{m=1}^{N} b_m sin(m s_n) at the midpoints
    s_n = (2n+1)π/(2M) as w = (M/2)·IFFT_M(W), where bin m of W is
    −i·b_m·e^{iπm/(2M)} and bin M − m adds i·b_m·e^{−iπm/(2M)}; then
    f_{2n} = w_n and f_{2n+1} = −w_{M−1−n}.  Only 2N of the M bins are
    nonzero, so the long IFFT splits into r short ones with no cross-row
    pass (the four-step FFT of Bailey, J. Supercomputing 4, 1990): row c
    holds w_{rq+c}, q = 0..2N−1, and is the IFFT of length 2N of W folded
    with stride r, bin m going to bin m mod 2N with the twiddle t_m of
    :func:`sine_twiddles` (which carries the i and the 1/r of the shorter
    IFFT).  Bins m and M − m land on bins m and 2N − m, as B_m·t_m and
    conj(t_m)·B_m with B_m = −(M/2)·b_m, which has the dtype of ``a``;
    bin N takes both.  Row c is the convolution's row pair c: its first
    half is f at the midpoints 2rq + 2c and its second half, reversed, −f
    at 2rq + 2r−1−2c, q = 0..N−1.

    Real ``a`` gives Hermitian row spectra (bin 2N − m is the conjugate of
    bin m), so each row is one ``irfft`` from bins 0..N, and the rows are
    float64.

    Returns ``pairs(c0, c1, work)``, the (even, odd) pair rows c0..c1−1
    that :meth:`fraclap.fastconv.FastConvolver.convolve` takes, f and −f,
    two (c1−c0, N) views of the first c1−c0 rows of ``work``, the caller's
    2(c1−c0) scratch rows: at least 2N+2 floats wide for real ``a``, at
    least 2N complex otherwise.  The bins of pair c are built in scratch
    row c1−c0+c (a real row's N+1 bins read as complex), and its IFFT
    writes f into row c, so no transform copies its input; the bins are
    used up, and the rows past c1−c0 are free again.  ``twiddles`` is the
    (r, 2N) table of :func:`bin_twiddles`, whose rows hold each bin's
    multiplier in bin order, so the lower and the upper bins each take one
    forward product, B_m·t_m and conj(t_m)·B_m; without it the twiddles of
    rows c0..c1−1 are computed in place in the bins they multiply.
    """
    a = _float_or_complex(a)
    if a.shape != (g.N,):
        raise SampleShapeError(
            f"expected {g.N} node samples or cosine coefficients, got {a.shape}"
        )
    n, n_mid = g.N, g.num_midpoints
    if 2 * n_mid > 2**52:
        raise ParameterError("r*N too large for exact index arithmetic")
    m = np.arange(1, n + 1)
    bins = a.copy()
    bins[:-2] -= a[2:]  # a_{m−1} − a_{m+1}
    bins *= 0.25 * n_mid * (m * m - 1.0)  # B_m = −(M/2)·b_m
    real = not np.iscomplexobj(a)
    mirrored = bins[-2::-1]  # B_m at bin 2N − m
    if twiddles is not None and not real:  # read contiguously in kept calls;
        mirrored = mirrored.copy()  # a one-shot call spares the N values

    def pairs(c0: int, c1: int, work):
        # The bins go in the odd rows, f in the even ones: an input that
        # overlapped its output would be copied by the transform first.
        j = c1 - c0
        spectra = (work[j:2 * j, :2 * n + 2].view(complex) if real
                   else work[j:2 * j, :2 * n])
        tw = (bin_twiddles(g, c0, c1, out=spectra) if twiddles is None
              else twiddles[c0:c1])
        if not real:  # bins 2N − m; a real row's are implied
            np.multiply(tw[:, n + 1:], mirrored, out=spectra[:, n + 1:])
        np.multiply(bins, tw[:, 1:n + 1], out=spectra[:, 1:n + 1])
        spectra[:, n] += bins[-1] * tw[:, 0]  # bin N takes both terms
        spectra[:, 0] = 0.0
        w = _transform_rows(partial(np.fft.irfft, n=2 * n) if real
                            else np.fft.ifft, spectra, work[:j, :2 * n])
        return w[:, :n], w[:, :n - 1:-1]

    return pairs


def derivatives_at_midpoints(a, g: GridSpec) -> np.ndarray:
    """f = sin(s)·u_ss + 2cos(s)·u_s at all 2rN midpoints in (0, π).

    ``a`` holds the N cosine coefficients of u.  The sine series is summed
    by :func:`sine_pairs`, r IFFTs of length 2N in place of one of length
    2rN, and its row pairs are put into midpoint order, the odd rows
    negated back from the −f of :func:`sine_pairs`.  Real ``a`` gives
    float64 f.  The name stays, though f is returned, because the
    benchmark's tracer wraps the function by it.
    """
    real = not np.iscomplexobj(a)
    pairs = sine_pairs(a, g)
    work = np.empty((2, 2 * g.N + 2 if real else 2 * g.N),
                    dtype=float if real else complex)
    for c in range(g.r):  # one pair at a time, through one pair of rows
        even, odd = pairs(c, c + 1, work)
        if c == 0:  # f goes where the first transform's scratch was freed
            f = np.empty(g.num_midpoints, dtype=work.dtype)
            f_even, f_odd = _pair_rows(f, g)
        f_even[c] = even[0]
        np.negative(odd[0], out=f_odd[c])
    return f


def f_from_analytic(us: Callable, uss: Callable, g: GridSpec) -> MidpointSamples:
    """Sample f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) from analytic derivatives.

    ``us`` and ``uss`` are callables on (0, π).  sin and cos are evaluated
    on the lower half of the midpoints only, in blocks of at most
    ``_ANALYTIC_BLOCK``, and each block is reused for its mirror: midpoint
    2rN−1−n takes sin(s_n) and −cos(s_n), since sin(π−s) = sin(s) and
    cos(π−s) = −cos(s), as the plan's weights do.  The callables see a lower
    block, then its mirror (in reverse order), so they must be pointwise: a
    value may depend only on its own s, and every block must give the dtype
    of the first, which sets that of f.  Each block's s is formed as
    :func:`fraclap.grid.midpoint_nodes` forms all of them, integer first, so
    f is the same to the bit as one evaluation on all 2rN midpoints with
    the lower half's sin and cos mirrored; but neither those midpoints nor
    the callables' temporaries on them ever exist at full length.  Real
    derivatives give float64 samples.
    """
    n_mid, half_h = g.num_midpoints, 0.5 * g.h
    half = n_mid // 2
    values = None
    for n0 in range(0, half, _ANALYTIC_BLOCK):
        n = np.arange(n0, min(n0 + _ANALYTIC_BLOCK, half), dtype=np.int64)
        s = (2 * n + 1) * half_h
        sin, cos = np.sin(s), np.cos(s)
        block = sin * np.asarray(uss(s)) + 2.0 * cos * np.asarray(us(s))
        if values is None:
            values = np.empty(n_mid, dtype=block.dtype)
        values[n0:n0 + len(n)] = block
        s = (2 * n_mid - 1 - 2 * n) * half_h  # the mirrors, 2rN−1−n
        cos *= -2.0  # 2cos(π−s) = −2cos(s)
        block = sin * np.asarray(uss(s)) + cos * np.asarray(us(s))
        values[n_mid - n0 - len(n):n_mid - n0] = block[::-1]
    return MidpointSamples(values=values, grid=g)


def f_from_samples(u_nodes, g: GridSpec) -> MidpointSamples:
    """Build f at the midpoints from u sampled at the N output nodes only.

    Composition of :func:`coefficients_from_samples` and
    :func:`derivatives_at_midpoints`, the CLI's route for sampled u; a time
    stepper calls ``FractionalLaplacian.apply_to_samples`` instead.
    """
    a = coefficients_from_samples(u_nodes)
    return MidpointSamples(values=derivatives_at_midpoints(a, g), grid=g)

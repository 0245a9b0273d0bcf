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

with a_N = a_{N+1} = 0, and one FFT of length 2rN (a DST-III, Makhoul,
IEEE Trans. ASSP 28, 1980; mode m in bins m and 2rN − m) sums it at every
midpoint s_n = (2n+1)π/(4rN).  u_s and u_ss are never formed.

Real u stays real throughout: its a_k come from the ``rfft`` of the
mirrored samples, the spectrum that sums f is Hermitian, and f is one
``irfft`` of length 2rN from the bins 0..rN.  Complex u runs the same steps in complex
arithmetic.

The shifted node set never contains 0 or π, so the series machinery stays
clear of the map's poles.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError, SampleShapeError
from .grid import GridSpec, midpoint_nodes
from .quadrature import MidpointSamples, _float_or_complex

__all__ = [
    "coefficients_from_samples",
    "derivatives_at_midpoints",
    "f_from_analytic",
    "f_from_samples",
]


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


def derivatives_at_midpoints(a, g: GridSpec) -> np.ndarray:
    """f = sin(s)·u_ss + 2cos(s)·u_s at all 2rN midpoints in (0, π).

    ``a`` holds the N cosine coefficients of u.  With M = 2rN, f is the
    sine series Σ_{m=1}^{N} b_m sin(m s_n) at s_n = (2n+1)π/(2M), summed by
    one FFT of length 2rN (a DST-III, Makhoul 1980): bin m gets
    −i·b_m·e^{iπm/(2M)} and bin M − m adds i·b_m·e^{−iπm/(2M)} (at r = 1
    both are bin N for m = N); with w = (M/2)·IFFT_M, f_{2n} = w_n and
    f_{2n+1} = −w_{M−1−n}.  For real ``a`` the spectrum is Hermitian (bin
    M − m is the conjugate of bin m), so w is one ``irfft`` from bins
    0..M/2, the Nyquist bin M/2 carrying both parts of mode N at r = 1, and
    f is float64.  The name stays, though f is returned, because the
    benchmark's tracer wraps the function by it.
    """
    a = _float_or_complex(a)
    if a.shape != (g.N,):
        raise SampleShapeError(
            f"expected {g.N} cosine coefficients, got {a.shape}"
        )
    n_mid = g.num_midpoints
    if 2 * n_mid > 2**52:
        raise ParameterError("r*N too large for exact index arithmetic")
    m = np.arange(1, g.N + 1)
    diff = a.copy()
    diff[:-2] -= a[2:]  # a_{m−1} − a_{m+1}
    # bins = −i·(M/2)·b_m = ¼iM(m²−1)(a_{m−1} − a_{m+1}).
    bins = 0.25j * n_mid * (m * m - 1.0) * diff
    phase = np.exp(0.5j * np.pi / n_mid * m)
    real = not np.iscomplexobj(a)
    w = np.zeros(n_mid // 2 + 1 if real else n_mid, dtype=complex)
    w[1: g.N + 1] = bins * phase
    if real:
        w[-1] += w[-1].conj()  # the Nyquist bin is its own mirror
        w = np.fft.irfft(w, n=n_mid)
    else:
        w[:-g.N - 1:-1] -= bins * phase.conj()  # adds: bin N is shared at r = 1
        np.fft.ifft(w, out=w)
    f = np.empty(n_mid, dtype=w.dtype)
    f[0::2] = w[: n_mid // 2]
    np.negative(w[: n_mid // 2 - 1: -1], out=f[1::2])
    return f


def f_from_analytic(us: Callable, uss: Callable, g: GridSpec) -> MidpointSamples:
    """Sample f(s) = sin(s)·u_ss(s) + 2cos(s)·u_s(s) from analytic derivatives.

    ``us`` and ``uss`` are callables on (0, π); they are evaluated at all
    2rN midpoints.  Real derivatives give float64 samples.
    """
    s = midpoint_nodes(g)
    values = np.sin(s) * np.asarray(uss(s)) + 2.0 * np.cos(s) * np.asarray(us(s))
    return MidpointSamples(values=values, grid=g)


def f_from_samples(u_nodes, g: GridSpec) -> MidpointSamples:
    """Build f at the midpoints from u sampled at the N output nodes only.

    Composition of :func:`coefficients_from_samples` and
    :func:`derivatives_at_midpoints`; this is the route used when no
    analytic derivatives are available (e.g. inside a time stepper).
    """
    u_nodes = _float_or_complex(u_nodes)
    if u_nodes.shape != (g.N,):
        raise SampleShapeError(
            f"expected {g.N} node samples, got {u_nodes.shape}"
        )
    a = coefficients_from_samples(u_nodes)
    return MidpointSamples(values=derivatives_at_midpoints(a, g), grid=g)

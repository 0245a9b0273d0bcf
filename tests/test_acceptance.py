"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear (they are also shown in captured output on failure).  The
heavyweight reproductions (criteria 2, 3 and 7) together take a few
minutes on a laptop-class machine.
"""

import math
import time

import numpy as np
import pytest

from fraclap.fastconv import fast_singular_integral
from fraclap.grid import GridSpec, map_to_real, output_nodes
from fraclap.nls import simulate
from fraclap.operator import FracLapParams, FractionalLaplacian
from fraclap.profiles import ERF, RATIONAL, mapped_derivatives
from fraclap.quadrature import (MidpointSamples, SingularParams,
                                modified_midpoint, singular_integral_direct)
from fraclap.reference import error_norms, exact_erf, exact_rational
from fraclap.spectral import f_from_analytic

from .oracles import fitted_order, fraclap_quad


def _verdict(num: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_oracle_equivalence():
    """Fast convolution equals the direct double summation everywhere."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in (1, 2, 7, 16, 101, 128):
        for r in (1, 2, 5):
            g = GridSpec(N=n, r=r, L=1.0)
            for beta, gamma in ((0.3, 0.7), (1.3, -0.3), (1.99, -0.99)):
                p = SingularParams(beta=beta, gamma=gamma)
                for _ in range(5):
                    v = rng.standard_normal(g.num_midpoints) \
                        + 1j * rng.standard_normal(g.num_midpoints)
                    F = MidpointSamples(values=v, grid=g)
                    direct = singular_integral_direct(F, p)
                    fast = fast_singular_integral(F, p)
                    rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    _verdict("1", ok, f"max relative deviation {worst:.3e} "
             f"(limit 1e-11), runtime {elapsed:.1f}s (limit 30s)")
    assert worst <= 1e-11
    assert elapsed < 30.0


def _rational_errors(n: int, r: int, alpha: float):
    g = GridSpec(N=n, r=r, L=1.0)
    p = FracLapParams(alpha=alpha, grid=g)
    us, uss = mapped_derivatives(RATIONAL, 1.0)
    out = FractionalLaplacian(p, cache_kernels=False).apply(
        f_from_analytic(us, uss, g))
    return error_norms(out, exact_rational(alpha, output_nodes(g)),
                       r=r, alpha=alpha)


@pytest.mark.slow
def test_criterion_2_rational_reproduction():
    """Ten-million-node single-mode profile at alpha = 1.3, r = 1."""
    desk = _rational_errors(2**20, 1, 1.3)
    t0 = time.perf_counter()
    full = _rational_errors(10000019, 1, 1.3)
    elapsed = time.perf_counter() - t0
    ok = (desk.linf <= 1e-10 and full.linf <= 1e-12 and full.l2 <= 1e-9
          and elapsed <= 60.0)
    _verdict("2", ok,
             f"N=2^20 linf {desk.linf:.3e} (limit 1e-10); "
             f"N=10000019 linf {full.linf:.3e} (limit 1e-12), "
             f"l2 {full.l2:.3e} (limit 1e-9), runtime {elapsed:.1f}s "
             f"(limit 60s)")
    assert desk.linf <= 1e-10
    assert full.linf <= 1e-12
    assert full.l2 <= 1e-9
    assert elapsed <= 60.0


@pytest.mark.slow
def test_criterion_3_erf_spectral_reproduction():
    """erf through the sampled (pseudospectral) route at N = 2^20, r = 8."""
    t0 = time.perf_counter()
    g = GridSpec(N=2**20, r=8, L=2.1)
    p = FracLapParams(alpha=0.9, grid=g)
    x = map_to_real(output_nodes(g), g.L)
    out = FractionalLaplacian(p, cache_kernels=False).apply_to_samples(ERF.u(x))
    rep = error_norms(out, exact_erf(0.9, x), r=8, alpha=0.9)
    elapsed = time.perf_counter() - t0
    ok = rep.l2 <= 1e-10 and rep.linf <= 1e-12 and elapsed <= 120.0
    _verdict("3", ok, f"l2 {rep.l2:.3e} (limit 1e-10), "
             f"linf {rep.linf:.3e} (limit 1e-12), runtime {elapsed:.1f}s "
             f"(limit 120s)")
    assert rep.l2 <= 1e-10
    assert rep.linf <= 1e-12
    assert elapsed <= 120.0


def test_criterion_4_order_in_refinement():
    """Consecutive log2 error ratios in r land in [1.7, 2.3] at N = 128."""
    t0 = time.perf_counter()
    ratios = {}
    for alpha in (0.3, 0.7, 1.3, 1.7):
        errs = [_rational_errors(128, r, alpha).l2 for r in (64, 128, 256, 512)]
        ratios[alpha] = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    elapsed = time.perf_counter() - t0
    flat = [o for seq in ratios.values() for o in seq]
    ok = all(1.7 <= o <= 2.3 for o in flat) and elapsed < 60.0
    _verdict("4", ok, "orders " + ", ".join(
        f"alpha={a}: {['%.2f' % o for o in seq]}" for a, seq in ratios.items())
        + f"; runtime {elapsed:.1f}s (limit 60s)")
    for seq in ratios.values():
        for o in seq:
            assert 1.7 <= o <= 2.3
    assert elapsed < 60.0


def test_criterion_5_order_in_node_count():
    """Fitted N-slopes r=1: ~2 for alpha=1.3 and ~1.8 for alpha=0.3."""
    sizes = [2**k for k in range(4, 11)]
    slopes = {}
    for alpha in (0.3, 1.3):
        errs = [_rational_errors(n, 1, alpha).l2 for n in sizes]
        slopes[alpha] = fitted_order(sizes, errs)
    ok = abs(slopes[1.3] - 2.0) <= 0.25 and abs(slopes[0.3] - 1.8) <= 0.25
    _verdict("5", ok, f"slope(alpha=1.3) {slopes[1.3]:.3f} (want 2±0.25), "
             f"slope(alpha=0.3) {slopes[0.3]:.3f} (want 1.8±0.25)")
    assert abs(slopes[1.3] - 2.0) <= 0.25
    assert abs(slopes[0.3] - 1.8) <= 0.25


def test_criterion_6_midpoint_rule_regimes():
    """Measured convergence orders of the modified midpoint rule.

    With f frozen at the cell midpoints, the error over [0, 1] is
    h^2/12 * [f'(1)/2 + (beta/2) * integral_0^1 x^(beta-1) f'(x) dx] plus a
    term of order h^(beta+k+1) from the cells near the singularity, where f
    vanishes like x^k at 0.  For f = x^2 the h^2 coefficient is
    (2*beta+1)/(12*(beta+1)), which is exactly 0 at beta = -1/2, so that pair
    converges at the endpoint order beta+3 = 2.5.  f = x^3 is flat at 0 as
    well but keeps the h^2 coefficient 1/12 at beta = -1/2: order 2 for a
    negative exponent with a flat smooth factor.  For f = x at beta = -1/2
    the endpoint term h^(beta+2) dominates: order 1.5.
    """
    sizes = 2 ** np.arange(4, 13)
    cases = [
        ("beta=0.5,f=x^2", 0.5, lambda x: x**2, 2.0 / 7.0, 2.0),
        ("beta=-0.5,f=x^2", -0.5, lambda x: x**2, 2.0 / 5.0, 2.5),
        ("beta=-0.5,f=x", -0.5, lambda x: x, 2.0 / 3.0, 1.5),
        ("beta=-0.5,f=x^3", -0.5, lambda x: x**3, 2.0 / 7.0, 2.0),
    ]
    measured = {}
    for label, beta, f, exact, want in cases:
        errs = []
        for m in sizes:
            mid = (np.arange(m) + 0.5) / m
            errs.append(abs(modified_midpoint(f(mid), 0.0, 1.0, beta) - exact))
        measured[label] = (fitted_order(sizes, errs), want)
    ok = all(abs(got - want) <= 0.2 for got, want in measured.values())
    _verdict("6", ok, "; ".join(
        f"{label}: {got:.3f} (want {want}±0.2)"
        for label, (got, want) in measured.items()))
    for label, (got, want) in measured.items():
        assert abs(got - want) <= 0.2, (
            f"{label}: measured order {got:.3f}, expected {want}±0.2"
        )


@pytest.mark.slow
def test_criterion_7_nls_desk_run():
    """Energy drift quarters per refinement doubling; no blow-up."""
    t0 = time.perf_counter()
    drifts = {}
    for r in (8, 16, 32):
        g = GridSpec(N=1024, r=r, L=200.0)
        p = FracLapParams(alpha=1.99, grid=g)
        x = map_to_real(output_nodes(g), g.L)
        res = simulate(np.exp(-(x**2)).astype(complex), p, dt=0.01,
                       t_end=5.0, snapshot_every=100,
                       sink=lambda t, psi, m: None)
        drifts[r] = float(np.max(np.abs(res.energies - res.energies[0])))
    elapsed = time.perf_counter() - t0
    r1 = drifts[8] / drifts[16]
    r2 = drifts[16] / drifts[32]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and elapsed < 300.0
    _verdict("7", ok, f"drift ratios {r1:.2f}, {r2:.2f} (want within [3, 5]); "
             f"drifts {drifts[8]:.2e}/{drifts[16]:.2e}/{drifts[32]:.2e}; "
             f"runtime {elapsed:.0f}s (limit 300s)")
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0
    assert elapsed < 300.0


def test_criterion_8_special_function_cross_validation():
    """Closed forms match the adaptive-quadrature evaluation pointwise."""
    s_points = np.linspace(0.15, math.pi - 0.15, 20)
    worst_rational = max(
        abs(exact_rational(1.3, s) - fraclap_quad(RATIONAL.ux, 1.3,
                                                  map_to_real(s, 1.0)))
        for s in s_points
    )
    x_points = np.linspace(-4.0, 4.0, 20)
    worst_erf = max(
        abs(exact_erf(0.9, x) - fraclap_quad(ERF.ux, 0.9, x)) for x in x_points
    )
    ok = worst_rational <= 1e-7 and worst_erf <= 1e-7
    _verdict("8", ok, f"max |closed form - quadrature|: rational "
             f"{worst_rational:.3e}, erf {worst_erf:.3e} (limit 1e-7)")
    assert worst_rational <= 1e-7
    assert worst_erf <= 1e-7

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from fraclap.errors import BlowUpError, ParameterError, SampleShapeError
from fraclap.grid import GridSpec, map_to_real, output_nodes
from fraclap.nls import EvolutionState, energy, rhs, rk4_step, simulate
from fraclap.operator import FracLapParams, FractionalLaplacian, prefactors
from fraclap.profiles import GAUSSIAN, mapped_derivatives
from fraclap.quadrature import singular_integral_direct
from fraclap.spectral import f_from_analytic

from .oracles import nls_ground_state


def _gaussian_state(n, r, L, alpha=1.99, dt=0.01):
    g = GridSpec(N=n, r=r, L=L)
    p = FracLapParams(alpha=alpha, grid=g)
    x = map_to_real(output_nodes(g), L)
    return EvolutionState(psi=np.exp(-(x**2)).astype(complex), t=0.0,
                          params=p, dt=dt)


class TestState:
    def test_length_validated(self):
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=8, r=1, L=1.0))
        with pytest.raises(SampleShapeError):
            EvolutionState(psi=np.zeros(7), t=0.0, params=p, dt=0.1)

    def test_negative_dt_rejected(self):
        # Non-finite steps are rejected too: dt must be > 0 and finite.
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=8, r=1, L=1.0))
        for dt in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                EvolutionState(psi=np.zeros(8), t=0.0, params=p, dt=dt)

    @pytest.mark.parametrize("dt", [True, np.True_])
    def test_bool_dt_rejected(self, dt):
        # True would otherwise pass as a step of 1.
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=8, r=1, L=1.0))
        with pytest.raises(ParameterError, match="bool"):
            EvolutionState(psi=np.zeros(8), t=0.0, params=p, dt=dt)

    def test_replace_shares_the_operator(self):
        state = _gaussian_state(n=16, r=2, L=5.0, alpha=1.3)
        stepped = rk4_step(state)
        assert stepped.operator is state.operator
        other = FracLapParams(alpha=0.7, grid=state.params.grid)
        moved = dataclasses.replace(state, params=other)
        assert moved.operator.params == other

    def test_operator_dies_with_the_state(self):
        # No module-level cache keeps an operator (and its plan) alive.
        state = _gaussian_state(n=16, r=2, L=5.0, alpha=1.3)
        rhs(state)
        ref = weakref.ref(state.operator)
        del state
        gc.collect()
        assert ref() is None


class TestRhs:
    def test_zero_state(self):
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=16, r=1, L=1.0))
        state = EvolutionState(psi=np.zeros(16), t=0.0, params=p, dt=0.1)
        assert np.all(rhs(state) == 0)

    def test_constant_modulus_pure_nonlinearity(self):
        # A constant profile has zero fractional Laplacian, leaving only
        # i|psi|^2 psi.
        c = 0.7 - 0.2j
        p = FracLapParams(alpha=0.7, grid=GridSpec(N=16, r=2, L=1.0))
        psi = np.full(16, c)
        state = EvolutionState(psi=psi, t=0.0, params=p, dt=0.1)
        expected = 1j * abs(c) ** 2 * psi
        assert np.max(np.abs(rhs(state) - expected)) < 1e-12

    def test_cross_path_oracle_gaussian(self):
        # Fully independent chain: analytic-derivative integrand plus the
        # direct double-sum quadrature.  The stepping route (pseudospectral
        # integrand plus fast convolution) must agree once the profile is
        # spatially resolved, which for L = 200 means N = 4096.
        state = _gaussian_state(n=4096, r=1, L=200.0)
        via_module = rhs(state)
        p = state.params
        us, uss = mapped_derivatives(GAUSSIAN, p.grid.L)
        F = f_from_analytic(us, uss, p.grid)
        flap = prefactors(p) * singular_integral_direct(F, p.singular_params)
        psi = state.psi
        independent = -1j * (0.5 * flap - np.abs(psi) ** 2 * psi)
        x = map_to_real(output_nodes(p.grid), p.grid.L)
        j0 = int(np.argmin(np.abs(x)))
        assert abs(via_module[j0] - independent[j0]) < 1e-8
        assert np.max(np.abs(via_module - independent)) < 1e-8


class TestRk4:
    def test_linear_surrogate_matches_series(self):
        # On psi' = lam*psi one step reproduces the degree-4 Taylor
        # polynomial of exp(lam*dt) exactly.
        lam = 0.3 - 1.1j
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=4, r=1, L=1.0))
        psi0 = np.array([1.0, 2.0, -1.0j, 0.5 + 0.5j])
        state = EvolutionState(psi=psi0, t=0.0, params=p, dt=0.25)
        stepped = rk4_step(state, rhs_fn=lambda st: lam * st.psi)
        z = lam * 0.25
        growth = sum(z**k / math.factorial(k) for k in range(5))
        assert np.max(np.abs(stepped.psi - psi0 * growth)) < 1e-14
        assert stepped.t == pytest.approx(0.25)

    def test_zero_dt_rejected(self):
        # A zero step never reaches rk4_step: neither a new state nor one
        # derived by dataclasses.replace may carry dt = 0.
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=4, r=1, L=1.0))
        psi0 = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        for dt in (0.0, -0.0):
            with pytest.raises(ParameterError):
                EvolutionState(psi=psi0, t=0.0, params=p, dt=dt)
        state = EvolutionState(psi=psi0, t=0.0, params=p, dt=0.1)
        with pytest.raises(ParameterError):
            dataclasses.replace(state, dt=0.0)

    def test_richardson_order_four(self):
        # Halving dt divides the time-stepping error by ~16.  The reference
        # run uses dt/8, so spatial error cancels exactly: all runs
        # discretize the same semi-discrete system.
        def advance(state, steps, dt):
            st = EvolutionState(psi=state.psi.copy(), t=0.0,
                                params=state.params, dt=dt)
            for _ in range(steps):
                st = rk4_step(st)
            return st.psi

        base = _gaussian_state(n=256, r=2, L=20.0, alpha=1.3, dt=0.2)
        t_final = 0.2
        ref = advance(base, 16, t_final / 16)
        coarse = np.max(np.abs(advance(base, 1, t_final) - ref))
        fine = np.max(np.abs(advance(base, 2, t_final / 2) - ref))
        assert coarse / fine == pytest.approx(16.0, rel=0.3)


def lam_free(st):
    return np.zeros_like(st.psi)


class TestEnergy:
    def test_zero_state(self):
        p = FracLapParams(alpha=1.3, grid=GridSpec(N=8, r=1, L=1.0))
        assert energy(EvolutionState(psi=np.zeros(8), t=0.0, params=p,
                                     dt=0.1)) == 0.0

    def test_gaussian_mass(self):
        # ∫ exp(-2x^2) dx = sqrt(pi/2); the midpoint rule on the mapped
        # integrand is spectrally accurate.
        state = _gaussian_state(n=4096, r=1, L=200.0)
        assert energy(state) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)

    def test_gaussian_mass_stable_under_refinement(self):
        vals = [energy(_gaussian_state(n=n, r=1, L=200.0)) for n in (2048, 4096)]
        assert abs(vals[0] - vals[1]) < 1e-12


def _simulate(psi0, p, **kwargs):
    """simulate() with the sink collecting its (t, ψ, M) snapshots."""
    snapshots = []
    res = simulate(psi0, p, sink=lambda *snap: snapshots.append(snap), **kwargs)
    return res, snapshots


class TestSimulate:
    def test_single_step_two_snapshots(self):
        state = _gaussian_state(n=64, r=1, L=10.0, alpha=1.3)
        res, snapshots = _simulate(state.psi, state.params, dt=0.01,
                                   t_end=0.01, snapshot_every=1)
        assert len(snapshots) == 2
        assert snapshots[0][0] == 0.0
        assert snapshots[1][0] == pytest.approx(0.01)
        assert len(res.times) == 2
        # The flow genuinely rotates real data into the complex plane; no
        # realness constraint is imposed anywhere.
        assert np.max(np.abs(snapshots[1][1].imag)) > 1e-4

    def test_zero_horizon_initial_snapshot_only(self):
        state = _gaussian_state(n=64, r=1, L=10.0, alpha=1.3)
        res, snapshots = _simulate(state.psi, state.params, dt=0.01,
                                   t_end=0.0, snapshot_every=5)
        assert len(snapshots) == 1
        assert res.energies[0] == pytest.approx(energy(state))

    def test_sink_receives_snapshots(self):
        state = _gaussian_state(n=64, r=1, L=10.0, alpha=1.3)
        seen = []
        simulate(state.psi, state.params, dt=0.01, t_end=0.05,
                 snapshot_every=2, sink=lambda t, psi, m: seen.append(t))
        # Steps 0, 2, 4 plus the final step 5.
        assert seen == pytest.approx([0.0, 0.02, 0.04, 0.05])

    @pytest.mark.parametrize("dt,t_end", [
        (0.01, math.nan), (0.01, math.inf), (math.nan, 0.05),
        (math.inf, 0.05), (0.0, 0.05), (0.01, -0.01),
    ])
    def test_non_finite_or_negative_times_rejected(self, dt, t_end):
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        with pytest.raises(ParameterError):
            _simulate(state.psi, state.params, dt=dt, t_end=t_end,
                      snapshot_every=1)

    @pytest.mark.parametrize("dt,t_end", [
        (True, 0.05), (np.True_, 0.05), (0.01, True), (0.01, np.True_),
    ])
    def test_bool_times_rejected(self, dt, t_end):
        # t_end=True would otherwise run 1/dt steps.
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        with pytest.raises(ParameterError, match="bool"):
            _simulate(state.psi, state.params, dt=dt, t_end=t_end,
                      snapshot_every=1)

    @pytest.mark.parametrize("dt,t_end", [(1e-300, 1e10), (1e-12, 1000.0)])
    def test_step_count_beyond_memory_rejected(self, dt, t_end):
        # t_end/dt overflows, or its energy log would need 16 PB.
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        with pytest.raises(ParameterError):
            _simulate(state.psi, state.params, dt=dt, t_end=t_end,
                      snapshot_every=1)

    @pytest.mark.parametrize("t_end", [0.025, 0.035, 0.0049])
    def test_t_end_between_steps_rejected(self, t_end):
        # round(t_end/dt) steps ended at 0.02, at 0.04 and at 0.
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        seen = []
        with pytest.raises(ParameterError,
                           match=rf"t_end = {t_end!r} .* dt = 0\.01"):
            simulate(state.psi, state.params, dt=0.01, t_end=t_end,
                     snapshot_every=1, sink=lambda *snap: seen.append(snap))
        assert seen == []

    @pytest.mark.parametrize("dt, t_end", [(0.01, np.float32(0.02)),
                                           (np.float32(0.01), 0.03),
                                           (0.01, 0.01 * 500)])
    def test_t_end_a_rounded_whole_step_count_runs_to_it(self, dt, t_end):
        # float32 times and dt·steps are whole step counts up to rounding.
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        res, _ = _simulate(state.psi, state.params, dt=dt, t_end=t_end,
                           snapshot_every=1000)
        assert res.times[-1] == pytest.approx(float(t_end), rel=1e-6)

    @pytest.mark.parametrize("every", [True, np.bool_(True), 0, 2.0])
    def test_snapshot_every_must_be_a_positive_integer(self, every):
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        with pytest.raises(ParameterError):
            _simulate(state.psi, state.params, dt=0.01, t_end=0.02,
                      snapshot_every=every)

    def test_numpy_integer_snapshot_every_accepted(self):
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        _, snapshots = _simulate(state.psi, state.params, dt=0.01, t_end=0.03,
                                 snapshot_every=np.int64(2))
        assert [t for t, _, _ in snapshots] == pytest.approx([0.0, 0.02, 0.03])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_initial_psi_rejected(self, bad):
        # Not a blow-up at t = 0.01: a step would spread it to every node.
        state = _gaussian_state(n=8, r=1, L=10.0, alpha=1.3)
        psi0 = state.psi.copy()
        psi0[3] = bad
        seen = []
        with pytest.raises(ParameterError, match="psi0 is not finite at index 3"):
            simulate(psi0, state.params, dt=0.01, t_end=0.02, snapshot_every=1,
                     sink=lambda *snap: seen.append(snap))
        assert seen == []  # no snapshot, no M(0) = nan

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detection(self):
        state = _gaussian_state(n=32, r=1, L=10.0, alpha=1.3)
        huge = state.psi * 1e200
        seen = []
        with pytest.raises(BlowUpError) as info:
            simulate(huge, state.params, dt=0.1, t_end=1.0, snapshot_every=1,
                     sink=lambda t, psi, m: seen.append(t))
        assert info.value.time > 0
        assert 0 <= info.value.index < 32
        # Every snapshot before the abort reached the sink.
        assert seen == pytest.approx([0.1 * k for k in range(len(seen))])
        assert seen[-1] == pytest.approx(info.value.time - 0.1)
        # The error carries the energy log of those same steps.
        assert np.array_equal(info.value.times, seen)
        assert len(info.value.energies) == len(seen)

    @pytest.mark.slow
    def test_energy_drift_quarters_per_refinement_doubling(self):
        # Shortened version of the full acceptance run: the drift floor is
        # the quadrature error, which falls ~4x per doubling of r.
        drifts = []
        for r in (8, 16):
            state = _gaussian_state(n=1024, r=r, L=200.0)
            res, _ = _simulate(state.psi, state.params, dt=0.01, t_end=1.0,
                               snapshot_every=100)
            drifts.append(np.max(np.abs(res.energies - res.energies[0])))
        assert 3.0 <= drifts[0] / drifts[1] <= 5.0


class TestGroundState:
    @pytest.mark.parametrize("alpha", [0.7, 1.6])
    def test_standing_wave_error_falls_sixteenfold_per_halved_dt(self, alpha):
        # ψ = e^{iλt}Q solves the semi-discrete equation to the residual of
        # Q, so what is left at t = 0.5 is RK4's O(dt⁴) error.  Measured:
        # 4.55e-10 → 2.84e-11 (α = 0.7) and 7.13e-11 → 4.34e-12 (α = 1.6).
        g = GridSpec(N=256, r=16, L=4.0)
        p = FracLapParams(alpha=alpha, grid=g)
        x = map_to_real(output_nodes(g), g.L)
        q, residual, _ = nls_ground_state(
            FractionalLaplacian(p).apply_to_samples, x, lam=1.0)
        assert residual < 1e-12
        errors = []
        for dt in (0.004, 0.002):
            _, snapshots = _simulate(q, p, dt=dt, t_end=0.5,
                                     snapshot_every=10**6)
            t, psi, _ = snapshots[-1]
            assert t == pytest.approx(0.5)
            errors.append(np.max(np.abs(psi - np.exp(1j * t) * q)))
        assert errors[0] < 1e-9
        assert errors[0] / errors[1] == pytest.approx(16.0, abs=2.0)

"""Time integration of the focusing fractional cubic Schrödinger equation

    i·ψ_t = ½·(−Δ)^{α/2}ψ − |ψ|²ψ,

discretized in space on the mapped grid and advanced with the classical
fourth-order Runge-Kutta scheme.  The nonlocal term is rebuilt
pseudospectrally from the current node samples at every stage — the only
possible route, since evolving data has no analytic derivatives — while
the state carries one operator, whose sample-independent plan is built by
the first stage and reused by every later stage and step of the run.

The quantity M(t) = ∫|ψ|²dx is preserved by the flow; its discrete drift
measures the quality of a run.  On the mapped grid M is approximated by
the composite midpoint rule applied to |ψ(L·cot s)|²/sin²(s), which is a
smooth periodic integrand, so the approximation itself is spectrally
accurate and the observed drift isolates the operator and time-stepping
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, ParameterError, SampleShapeError
from .grid import _finite_real, _positive_int, output_nodes
from .operator import FracLapParams, FractionalLaplacian

__all__ = [
    "EvolutionState",
    "SimulationResult",
    "rhs",
    "rk4_step",
    "energy",
    "simulate",
]


@dataclass
class EvolutionState:
    """Wavefunction samples ψ(x_j, t) plus the stepping context.

    ``operator`` is built from ``params`` when none (or one for other
    parameters) is given; :func:`dataclasses.replace` passes it on, so every
    state derived from this one shares its kernel-caching plan.
    """

    psi: np.ndarray
    t: float
    params: FracLapParams
    dt: float
    operator: FractionalLaplacian | None = field(default=None, repr=False,
                                                 compare=False)

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.params.grid.N,):
            raise SampleShapeError(
                f"psi must have length N={self.params.grid.N}, got {self.psi.shape}"
            )
        self.dt = _finite_real("dt", self.dt, 0.0)
        if self.operator is None or self.operator.params != self.params:
            self.operator = FractionalLaplacian(self.params)


def rhs(state: EvolutionState) -> np.ndarray:
    """ψ_t = −i·(½·(−Δ)^{α/2}ψ − |ψ|²ψ) at the state's samples."""
    flap = state.operator.apply_to_samples(state.psi)
    return -1j * (0.5 * flap - np.abs(state.psi) ** 2 * state.psi)


def rk4_step(state: EvolutionState,
             rhs_fn: Callable[[EvolutionState], np.ndarray] = rhs
             ) -> EvolutionState:
    """One classical Runge-Kutta step of size dt; t advances by exactly dt.

    ``rhs_fn`` is injectable so surrogate right-hand sides (e.g. a linear
    λ·ψ) can exercise the stepper in isolation.
    """
    psi, dt = state.psi, state.dt
    k1 = rhs_fn(state)
    k2 = rhs_fn(replace(state, psi=psi + 0.5 * dt * k1, t=state.t + 0.5 * dt))
    k3 = rhs_fn(replace(state, psi=psi + 0.5 * dt * k2, t=state.t + 0.5 * dt))
    k4 = rhs_fn(replace(state, psi=psi + dt * k3, t=state.t + dt))
    psi_new = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return replace(state, psi=psi_new, t=state.t + dt)


def energy(state: EvolutionState) -> float:
    """Midpoint-rule approximation of M = ∫|ψ|²dx on the mapped grid."""
    g = state.params.grid
    s = output_nodes(g)
    return float(
        g.L * np.pi / g.N * np.sum(np.abs(state.psi) ** 2 / np.sin(s) ** 2)
    )


@dataclass
class SimulationResult:
    """The per-step energy trace; snapshots go to the sink as they arise."""

    times: np.ndarray
    energies: np.ndarray


def simulate(psi0, p: FracLapParams, dt: float, t_end: float,
             snapshot_every: int,
             sink: Callable[[float, np.ndarray, float], None]
             ) -> SimulationResult:
    """Advance ψ from t = 0 to t_end, logging energy every step.

    Snapshots (t, ψ, M) are taken at t = 0, after every
    ``snapshot_every``-th step, and at the final step, and each is passed
    to ``sink`` at once, with a copy of ψ the sink may keep; the run holds
    none of them.  A non-finite sample after a step aborts the run with
    :class:`fraclap.errors.BlowUpError` carrying the first bad index, the
    time it appeared and the energy log of the steps before it, after the
    sink has seen every earlier snapshot.  A non-finite ψ0 (naming its
    first bad index), or a step count t_end/dt that overflows or whose
    energy log does not fit in memory, is a ParameterError.
    """
    state = EvolutionState(psi=np.asarray(psi0, dtype=complex), t=0.0,
                           params=p, dt=dt)
    dt = state.dt
    t_end = _finite_real("t_end", t_end, 0.0, low_closed=True)
    snapshot_every = _positive_int("snapshot_every", snapshot_every)
    if not t_end / dt < 2**53:  # also rejects a quotient that overflows
        raise ParameterError(f"t_end/dt = {t_end / dt:g} steps is too many")
    n_steps = int(round(t_end / dt))
    try:
        times = np.empty(n_steps + 1)
        energies = np.empty(n_steps + 1)
    except MemoryError as exc:
        raise ParameterError(
            f"the energy log of {n_steps} steps does not fit in memory") from exc

    def record(step: int):
        m = energy(state)
        times[step] = state.t
        energies[step] = m
        if step % snapshot_every == 0 or step == n_steps:
            sink(state.t, state.psi.copy(), m)

    finite = np.isfinite(state.psi.real) & np.isfinite(state.psi.imag)
    if not finite.all():  # a step would spread it to every node
        raise ParameterError(f"psi0 is not finite at index {np.argmin(finite)}")
    record(0)
    for step in range(1, n_steps + 1):
        state = rk4_step(state)
        finite = np.isfinite(state.psi.real) & np.isfinite(state.psi.imag)
        if not finite.all():
            raise BlowUpError(time=state.t, index=int(np.argmin(finite)),
                              times=times[:step], energies=energies[:step])
        record(step)
    return SimulationResult(times=times, energies=energies)

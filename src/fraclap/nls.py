"""Time integration of the focusing fractional cubic Schrödinger equation

    i·ψ_t = ½·(−Δ)^{α/2}ψ − |ψ|²ψ,

on the mapped grid, by classical fourth-order Runge-Kutta.  Every stage
rebuilds the nonlocal term from the node samples, on one operator whose
plan the first stage builds for the whole run.

The flow preserves M(t) = ∫|ψ|²dx, so its drift measures a run.  The
midpoint rule on the smooth periodic |ψ(L·cot s)|²/sin²(s) is spectrally
accurate, so the drift isolates the operator and time-stepping errors.
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

    ``operator`` is built from ``params`` unless one for them is given;
    every state :func:`dataclasses.replace` derives from this one shares it.
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
    """One classical Runge-Kutta step of size dt of ``rhs_fn``; t advances
    by exactly dt."""
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

    Snapshots (t, ψ, M) at t = 0, after every ``snapshot_every``-th step
    and at the final step go to ``sink`` at once, with a copy of ψ it may
    keep.  A non-finite sample after a step raises
    :class:`fraclap.errors.BlowUpError` with the first bad index, its time
    and the energy log of the steps before.  A non-finite ψ0, a t_end that
    is not a whole number of steps dt (to a relative 1e-6), or a step count
    that overflows or whose log does not fit in memory is a ParameterError.
    """
    state = EvolutionState(psi=np.asarray(psi0, dtype=complex), t=0.0,
                           params=p, dt=dt)
    dt = state.dt
    t_end = _finite_real("t_end", t_end, 0.0, low_closed=True)
    snapshot_every = _positive_int("snapshot_every", snapshot_every)
    steps = t_end / dt
    if not steps < 2**53:  # also rejects a quotient that overflows
        raise ParameterError(f"t_end/dt = {steps:g} steps is too many")
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-6 * n_steps:  # admits float32 times
        raise ParameterError(f"t_end = {t_end!r} is not a whole number of "
                             f"steps of dt = {dt!r} (t_end/dt = {steps!r})")
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

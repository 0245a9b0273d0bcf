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

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, ParameterError, SampleShapeError
from .grid import output_nodes
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
        # dt = 0 is tolerated so a degenerate identity step can be formed;
        # simulate() itself requires dt > 0.
        if not self.dt >= 0:
            raise ParameterError(f"dt must be nonnegative, got {self.dt}")
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
    """Snapshots (none if streamed to a sink) plus the per-step energy trace."""

    snapshots: list  # (t, psi copy, M) triples
    times: np.ndarray
    energies: np.ndarray


def simulate(psi0, p: FracLapParams, dt: float, t_end: float,
             snapshot_every: int,
             sink: Callable[[float, np.ndarray, float], None] | None = None
             ) -> SimulationResult:
    """Advance ψ from t = 0 to t_end, logging energy every step.

    Snapshots (t, ψ, M) are recorded at t = 0, after every
    ``snapshot_every``-th step, and at the final step.  Each goes to
    ``sink`` when one is given and into the result otherwise, so a streamed
    run does not hold them.  A non-finite sample aborts the run with
    :class:`fraclap.errors.BlowUpError` carrying the first bad index and the
    time it appeared.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    if not (t_end >= 0 and math.isfinite(t_end)):
        raise ParameterError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if isinstance(snapshot_every, bool) \
            or not isinstance(snapshot_every, (int, np.integer)) \
            or snapshot_every < 1:
        raise ParameterError(
            f"snapshot_every must be a positive integer, got {snapshot_every!r}")
    n_steps = int(round(t_end / dt))

    state = EvolutionState(psi=np.asarray(psi0, dtype=complex), t=0.0,
                           params=p, dt=dt)
    snapshots: list = []
    times = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)

    def record(step: int):
        m = energy(state)
        times[step] = state.t
        energies[step] = m
        if step % snapshot_every == 0 or step == n_steps:
            snap = (state.t, state.psi.copy(), m)
            if sink is None:
                snapshots.append(snap)
            else:
                sink(*snap)

    record(0)
    for step in range(1, n_steps + 1):
        state = rk4_step(state)
        finite = np.isfinite(state.psi.real) & np.isfinite(state.psi.imag)
        if not finite.all():
            raise BlowUpError(time=state.t, index=int(np.argmin(finite)))
        record(step)
    return SimulationResult(snapshots=snapshots, times=times, energies=energies)

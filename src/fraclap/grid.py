"""Discretization of the real line through the algebraic map x = L·cot(s).

The change of variables x = L·cot(s) carries the whole real line onto the
open interval (0, π), so no domain truncation is ever performed.  Two node
families live on (0, π):

* output nodes ``s_j = (2j+1)π/(2N)``, j = 0..N-1, where results are
  reported, and
* quadrature midpoints ``h·(n+1/2)``, n = 0..2rN-1, with ``h = π/(2rN)``,
  where integrand samples are taken (``r`` is the refinement factor).

Every output node coincides with a subinterval endpoint: ``s_j`` equals the
whole node of index ``(2j+1)·r``.  All node values are produced as
(integer expression)·h with the integer product formed first, so the
coincidence is bit-exact and signs of node differences can be decided in
integer arithmetic (see :func:`index_sign`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "GridSpec",
    "output_nodes",
    "midpoint_nodes",
    "map_to_real",
    "map_from_real",
    "index_sign",
]


def _reject_bool(name: str, value) -> None:
    """Raise ParameterError when a real parameter is a ``bool``/``np.bool_``."""
    if isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"{name} must be a number, not a bool, got {value!r}")


def _positive_int(name: str, value) -> int:
    """``value`` as an ``int`` ≥ 1; a Python or numpy integer, not a bool."""
    _reject_bool(name, value)
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _finite_real(name: str, value, low: float = -math.inf,
                 high: float = math.inf, low_closed: bool = False) -> float:
    """A Python or numpy real, not a bool, as a finite ``float`` in (low, high).

    ``low_closed`` admits ``low`` itself.
    """
    _reject_bool(name, value)
    x = float(value) if isinstance(value, numbers.Real) else math.nan
    if not (math.isfinite(x) and (low <= x if low_closed else low < x) and x < high):
        raise ParameterError(
            f"{name} must be a finite number in {'[' if low_closed else '('}"
            f"{low}, {high}), got {value!r}")
    return x


@dataclass(frozen=True)
class GridSpec:
    """Discretization record: N output nodes, refinement r, map scale L.

    Parameters
    ----------
    N : int
        Number of output nodes, ≥ 1, stored as ``int`` (as is ``r``).
    r : int
        Refinement factor, ≥ 1; the quadrature uses 2rN midpoints.
    L : float
        Map scale of x = L·cot(s), > 0 and finite, stored as ``float``.

    4rN ≤ 2^52 keeps the indices 2n+1 and m(4c+1), all below 4rN, exact.
    """

    N: int
    r: int
    L: float

    def __post_init__(self):
        object.__setattr__(self, "N", _positive_int("N", self.N))
        object.__setattr__(self, "r", _positive_int("r", self.r))
        object.__setattr__(self, "L", _finite_real("L", self.L, 0.0))
        if 4 * self.r * self.N > 2**52:
            raise ParameterError("r*N too large for exact index arithmetic")

    @property
    def h(self) -> float:
        """Fine spacing π/(2rN)."""
        return math.pi / (2 * self.r * self.N)

    @property
    def num_midpoints(self) -> int:
        """Number of quadrature midpoints, 2rN."""
        return 2 * self.r * self.N


def output_nodes(g: GridSpec) -> np.ndarray:
    """Nodes s_j = (2j+1)π/(2N), j = 0..N-1, strictly increasing in (0, π).

    Computed as ((2j+1)·r)·h so that s_j is bit-identical to the whole
    fine node of index (2j+1)·r.
    """
    j = np.arange(g.N, dtype=np.int64)
    return ((2 * j + 1) * g.r) * g.h


def midpoint_nodes(g: GridSpec) -> np.ndarray:
    """Midpoints h·(n+1/2), n = 0..2rN-1, of the 2rN fine subintervals."""
    n = np.arange(g.num_midpoints, dtype=np.int64)
    return (2 * n + 1) * (0.5 * g.h)


def map_to_real(s, L: float):
    """Map s ∈ (0, π) to x = L·cot(s); monotone decreasing in s.

    Accepts scalars or arrays.  Raises ParameterError outside (0, π).
    """
    L = _finite_real("L", L, 0.0)
    s = np.asarray(s, dtype=float)
    if not np.all((s > 0.0) & (s < np.pi)):  # NaN fails too
        raise ParameterError("s must lie strictly inside (0, pi)")
    x = L / np.tan(s)
    return x if x.ndim else float(x)


def map_from_real(x, L: float):
    """Inverse map: the unique s ∈ (0, π) with x = L·cot(s)."""
    L = _finite_real("L", L, 0.0)
    x = np.asarray(x, dtype=float)
    s = np.arctan2(L, x)
    return s if s.ndim else float(s)


def index_sign(n, j, r: int):
    """Sign of the node difference s̃_n − s_j, decided in integer arithmetic.

    Returns sgn(n − (2j+1)·r) as an int (or int array).  This is the only
    supported way to evaluate the sign of a node difference: floating
    subtraction of nearly equal nodes may miss the exact-zero case, which
    the quadrature weights rely on.
    """
    d = np.asarray(n, dtype=np.int64) - (2 * np.asarray(j, dtype=np.int64) + 1) * r
    s = np.sign(d)
    return s if s.ndim else int(s)

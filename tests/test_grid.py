import math

import numpy as np
import pytest

from fraclap.errors import ParameterError
from fraclap.fastconv import fast_singular_integral
from fraclap.grid import (GridSpec, index_sign, map_from_real, map_to_real,
                          midpoint_nodes, output_nodes)
from fraclap.nls import EvolutionState, rk4_step, simulate
from fraclap.operator import FracLapParams, FractionalLaplacian
from fraclap.profiles import ERF, mapped_derivatives
from fraclap.quadrature import (MidpointSamples, SingularParams, modified_midpoint,
                                signed_power_difference)
from fraclap.reference import exact_erf, exact_rational, kummer_1f1


class TestGridSpec:
    def test_spacing_times_count_is_pi(self):
        g = GridSpec(N=7, r=3, L=2.0)
        assert g.h * 2 * g.r * g.N == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(N=0, r=1, L=1.0),
        dict(N=-2, r=1, L=1.0),
        dict(N=4, r=0, L=1.0),
        dict(N=4, r=1, L=0.0),
        dict(N=4, r=1, L=-3.0),
        dict(N=4.0, r=1, L=1.0),
        dict(N=True, r=1, L=1.0),
        dict(N=4, r=True, L=1.0),
        dict(N=np.bool_(True), r=1, L=1.0),
        dict(N=np.int64(0), r=1, L=1.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("L", [True, np.bool_(True)])
    def test_bool_map_scale_rejected(self, L):
        with pytest.raises(ParameterError, match="bool"):
            GridSpec(N=4, r=1, L=L)

    def test_exact_index_limit(self):
        # 4rN ≤ 2^52 keeps every phase and midpoint index an exact float64
        # integer.
        assert GridSpec(N=1, r=2**50, L=1.0).r == 2**50
        with pytest.raises(ParameterError, match="exact index"):
            GridSpec(N=1, r=2**50 + 1, L=1.0)

    def test_numpy_integers_accepted_and_stored_as_int(self):
        g = GridSpec(N=np.int64(8), r=np.int32(3), L=1.0)
        assert type(g.N) is int and type(g.r) is int
        assert g == GridSpec(N=8, r=3, L=1.0)


class TestOutputNodes:
    def test_single_node_is_midpoint_of_interval(self):
        assert output_nodes(GridSpec(N=1, r=1, L=1.0)) == pytest.approx([math.pi / 2])

    def test_two_nodes(self):
        assert output_nodes(GridSpec(N=2, r=1, L=1.0)) == pytest.approx(
            [math.pi / 4, 3 * math.pi / 4]
        )

    def test_fourth_node_of_four(self):
        assert output_nodes(GridSpec(N=4, r=1, L=1.0))[3] == pytest.approx(
            7 * math.pi / 8
        )

    def test_increasing_inside_interval(self):
        s = output_nodes(GridSpec(N=33, r=2, L=1.0))
        assert np.all(np.diff(s) > 0) and s[0] > 0 and s[-1] < math.pi

    @pytest.mark.parametrize("n,r", [(5, 1), (8, 3), (33, 7)])
    def test_reflection_symmetry_about_center(self, n, r):
        s = output_nodes(GridSpec(N=n, r=r, L=1.0))
        assert np.max(np.abs(s[::-1] + s - math.pi)) < 5e-16 * math.pi


class TestMidpointNodes:
    @pytest.mark.parametrize("n,r,expected", [
        (1, 1, [math.pi / 4, 3 * math.pi / 4]),
        (2, 1, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8]),
        (1, 2, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8]),
    ])
    def test_small_grids(self, n, r, expected):
        assert midpoint_nodes(GridSpec(N=n, r=r, L=1.0)) == pytest.approx(expected)

    @pytest.mark.parametrize("n,r", [(4, 1), (5, 3), (16, 8)])
    def test_output_nodes_coincide_with_whole_fine_nodes(self, n, r):
        # s_j must equal the fine node of index (2j+1)r bit-for-bit: both
        # are produced as (integer) * h with the integer formed first.
        g = GridSpec(N=n, r=r, L=1.0)
        s = output_nodes(g)
        for j in range(n):
            whole = ((2 * j + 1) * r) * g.h
            assert s[j] == whole
            assert index_sign((2 * j + 1) * r, j, r) == 0


class TestMap:
    def test_center_maps_to_origin(self):
        assert map_to_real(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_quarter_maps_to_scale(self):
        assert map_to_real(math.pi / 4, 1.0) == pytest.approx(1.0)
        assert map_to_real(math.pi / 4, 2.1) == pytest.approx(2.1)

    def test_monotone_decreasing(self):
        s = np.linspace(0.1, math.pi - 0.1, 50)
        assert np.all(np.diff(map_to_real(s, 1.7)) < 0)

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.3, 4.0, math.nan,
                                     np.array([1.0, math.nan])])
    def test_domain_errors(self, bad):
        with pytest.raises(ParameterError):
            map_to_real(bad, 1.0)

    def test_round_trip(self):
        s = np.linspace(0.05, math.pi - 0.05, 40)
        back = map_from_real(map_to_real(s, 2.1), 2.1)
        assert np.max(np.abs(back - s)) < 1e-14

    def test_inverse_branch_is_zero_pi(self):
        assert 0 < map_from_real(1e9, 1.0) < map_from_real(-1e9, 1.0) < math.pi


class TestIndexSign:
    def test_exact_zero_case(self):
        assert index_sign(3, 1, 1) == 0

    def test_below(self):
        assert index_sign(2, 1, 1) == -1

    def test_above(self):
        assert index_sign(4, 1, 1) == 1

    def test_vectorized(self):
        n = np.array([0, 3, 6])
        assert list(index_sign(n, 1, 1)) == [-1, 0, 1]


def _grid(name, value):
    g = GridSpec(**{"N": 24, "r": 2, "L": 1.0, name: value})
    return getattr(g, name), midpoint_nodes(g)


def _operator(name, value):
    """The stored α or L, and the sampled-route operator values of erf."""
    kw = {"alpha": 0.9, "L": 2.1, name: value}
    p = FracLapParams(alpha=kw["alpha"], grid=GridSpec(N=64, r=4, L=kw["L"]))
    x = map_to_real(output_nodes(p.grid), p.grid.L)
    stored = p.alpha if name == "alpha" else p.grid.L
    return stored, FractionalLaplacian(p).apply_to_samples(ERF.u(x))


def _singular(name, value):
    p = SingularParams(**{"beta": 0.9, "gamma": 0.1, name: value})
    g = GridSpec(N=8, r=2, L=1.0)
    F = MidpointSamples(np.cos(midpoint_nodes(g)), g)
    return getattr(p, name), fast_singular_integral(F, p)


def _state(dt):
    p = FracLapParams(alpha=1.3, grid=GridSpec(N=16, r=2, L=4.0))
    psi = np.exp(-map_to_real(output_nodes(p.grid), 4.0) ** 2)
    return EvolutionState(psi=psi, t=0.0, params=p, dt=dt)


def _step(dt):
    state = _state(dt)
    return state.dt, rk4_step(state).psi


def _simulate(t_end=0.02, snapshot_every=1):
    snaps = []
    state = _state(0.01)
    result = simulate(state.psi, state.params, 0.01, t_end, snapshot_every,
                      lambda *snap: snaps.append(snap))
    return None, (result.times, result.energies, snaps)


_S = np.linspace(0.1, 3.0, 7)


def _function(f, *args):
    """A function site: nothing stored, one output."""
    return None, f(*args)


# Every site that takes a scalar parameter: (valid value, call).  A call
# returns (what a record stores, or None for a function; an output).
_SITES = {
    "GridSpec.N": (24, lambda v: _grid("N", v)),
    "GridSpec.r": (3, lambda v: _grid("r", v)),
    "GridSpec.L": (2.1, lambda v: _operator("L", v)),
    "FracLapParams.alpha": (0.9, lambda v: _operator("alpha", v)),
    "SingularParams.beta": (0.9, lambda v: _singular("beta", v)),
    "SingularParams.gamma": (0.1, lambda v: _singular("gamma", v)),
    "EvolutionState.dt": (0.01, _step),
    "simulate.t_end": (0.02, lambda v: _simulate(t_end=v)),
    "simulate.snapshot_every": (2, lambda v: _simulate(snapshot_every=v)),
    "exact_rational.alpha": (0.9, lambda v: _function(exact_rational, v, _S)),
    "exact_erf.alpha": (0.9, lambda v: _function(exact_erf, v, _S - 1.5)),
    "kummer_1f1.a": (0.95, lambda v: _function(kummer_1f1, v, 1.5, -_S**3)),
    "kummer_1f1.b": (1.5, lambda v: _function(kummer_1f1, 0.95, v, -_S**3)),
    "modified_midpoint.a": (
        0.5, lambda v: _function(modified_midpoint, _S, v, 2.0, 0.5)),
    "modified_midpoint.b": (
        2.0, lambda v: _function(modified_midpoint, _S, 0.5, v, 0.5)),
    "modified_midpoint.beta": (
        0.5, lambda v: _function(modified_midpoint, _S, 0.5, 2.0, v)),
    "signed_power_difference.gamma": (0.3, lambda v: _function(
        signed_power_difference, _S, _S - 1.0, v, 1, np.sign(_S - 1.0))),
    "map_to_real.L": (2.1, lambda v: _function(map_to_real, _S, v)),
    "map_from_real.L": (2.1, lambda v: _function(map_from_real, _S - 1.5, v)),
    "mapped_derivatives.L": (2.1, lambda v: _function(
        lambda: [f(_S) for f in mapped_derivatives(ERF, v)])),
}


def _bits(x):
    """x's types and bytes, nested, so that equality means bit-identical."""
    if isinstance(x, (tuple, list)):
        return [_bits(item) for item in x]
    return type(x), np.asarray(x).dtype, np.asarray(x).tobytes()


@pytest.mark.parametrize("site", list(_SITES))
def test_parameter_rule(site):
    """bool, NaN and ±inf are rejected; numpy scalars act as Python numbers."""
    value, call = _SITES[site]
    for bad in (True, np.True_):
        with pytest.raises(ParameterError, match="bool"):
            call(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            call(bad)
    kinds = (np.int64,) if isinstance(value, int) else (np.float64, np.float32)
    for kind in kinds:
        python = type(value)(kind(value))
        stored, out = call(kind(value))
        assert stored is None or type(stored) is type(value)
        assert _bits((stored, out)) == _bits(call(python))

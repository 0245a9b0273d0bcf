import math

import numpy as np
import pytest

from fraclap.errors import ParameterError
from fraclap.grid import (GridSpec, index_sign, map_from_real, map_to_real,
                          midpoint_nodes, output_nodes)


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

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.3, 4.0])
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

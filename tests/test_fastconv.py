import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.errors import SampleShapeError
from fraclap.fastconv import (FastConvolver, build_kernels,
                              fast_singular_integral, padded_rows)
from fraclap.grid import GridSpec
from fraclap.quadrature import (MidpointSamples, SingularParams,
                                singular_integral_direct)


def _random_samples(g: GridSpec, seed: int) -> MidpointSamples:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.num_midpoints) + 1j * rng.standard_normal(
        g.num_midpoints
    )
    return MidpointSamples(values=v, grid=g)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestPaddedRows:
    @pytest.mark.parametrize("n,expected", [
        (1, 2), (2, 2), (4, 8), (5, 8), (16, 32), (101, 256), (128, 256),
    ])
    def test_power_of_two_clamp(self, n, expected):
        need = max((n + 1) // 2 + n - 1, 2)
        assert padded_rows(n) == expected
        assert padded_rows(n) >= need
        assert padded_rows(n) & (padded_rows(n) - 1) == 0


class TestKernelLayout:
    def test_zero_samples_zero_k_columns(self):
        g = GridSpec(N=6, r=2, L=1.0)
        p = SingularParams(beta=0.7, gamma=0.2)
        zero = build_kernels(
            MidpointSamples(values=np.zeros(g.num_midpoints), grid=g), p
        )
        assert np.all(zero.k1 == 0) and np.all(zero.k2 == 0)
        # L columns carry no dependence on the samples.
        other = build_kernels(_random_samples(g, 1), p)
        assert np.array_equal(zero.l1, other.l1)
        assert np.array_equal(zero.l2, other.l2)

    def test_gamma_zero_l1_is_unit_interval_lengths(self):
        # With gamma = 0 the moving factor integrates to the plain interval
        # length, i.e. exactly 1 in index units, for every populated row.
        g = GridSpec(N=4, r=1, L=1.0)
        cols = build_kernels(_random_samples(g, 2),
                             SingularParams(beta=1.0, gamma=0.0))
        n_active = (g.N + 1) // 2
        for q in range(2 * g.r):
            populated = list(cols.l1[: g.N, q])
            if n_active > 1:
                populated += list(cols.l1[cols.nrows - (n_active - 1):, q])
            assert populated == pytest.approx(np.ones(len(populated)))

    def test_odd_n_high_residue_columns_stop_early(self):
        g = GridSpec(N=5, r=3, L=1.0)
        cols = build_kernels(_random_samples(g, 3),
                             SingularParams(beta=0.5, gamma=0.5))
        for q in range(g.r, 2 * g.r):
            assert np.all(cols.k1[g.N // 2:, q] == 0)
            assert np.any(cols.k1[: g.N // 2, q] != 0)
        for q in range(g.r):
            assert np.any(cols.k1[(g.N + 1) // 2 - 1, q] != 0)

    def test_k_columns_zero_padded_beyond_active_rows(self):
        g = GridSpec(N=7, r=2, L=1.0)
        cols = build_kernels(_random_samples(g, 4),
                             SingularParams(beta=1.2, gamma=-0.4))
        assert np.all(cols.k1[(g.N + 1) // 2:, :] == 0)
        assert np.all(cols.k2[(g.N + 1) // 2:, :] == 0)


class TestFastAgainstDirect:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_matches_direct(self, n, r):
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=1.3, gamma=-0.3)
        F = _random_samples(g, 10 * n + r)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    def test_constant_samples_integrate_sine(self):
        g = GridSpec(N=8, r=16, L=1.0)
        F = MidpointSamples(values=np.ones(g.num_midpoints), grid=g)
        out = fast_singular_integral(F, SingularParams(beta=1.0, gamma=0.0))
        assert out == pytest.approx(np.full(g.N, 2.0), abs=1e-4)

    def test_single_node_grid(self):
        g = GridSpec(N=1, r=3, L=1.0)
        p = SingularParams(beta=0.3, gamma=0.7)
        F = _random_samples(g, 5)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 300), r=st.integers(1, 7),
           beta=st.floats(0.001, 4.0), gamma=st.floats(-0.999, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=293, r=7, beta=1.99, gamma=-0.99, seed=0)  # criterion 1's pair
    @example(n=1, r=1, beta=1.99, gamma=-0.99, seed=1)
    @example(n=101, r=3, beta=1.99, gamma=-0.99, seed=2)
    def test_property_fast_equals_direct(self, n, r, beta, gamma, seed):
        g = GridSpec(N=n, r=r, L=1.0)
        p = SingularParams(beta=beta, gamma=gamma)
        F = _random_samples(g, seed)
        assert _rel(
            fast_singular_integral(F, p), singular_integral_direct(F, p)
        ) < 1e-11

    def test_linearity(self):
        g = GridSpec(N=12, r=2, L=1.0)
        p = SingularParams(beta=1.99, gamma=-0.99)
        f1, f2 = _random_samples(g, 6), _random_samples(g, 7)
        a, b = 0.3 - 2j, 1.1 + 0.5j
        combined = MidpointSamples(values=a * f1.values + b * f2.values, grid=g)
        assert _rel(
            fast_singular_integral(combined, p),
            a * fast_singular_integral(f1, p) + b * fast_singular_integral(f2, p),
        ) < 1e-12


class TestConvolverReuse:
    def test_cached_plan_matches_one_shot(self):
        g = GridSpec(N=9, r=4, L=1.0)
        p = SingularParams(beta=0.6, gamma=0.1)
        plan = FastConvolver(g, p, cache_kernels=True)
        for seed in (20, 21, 22):
            F = _random_samples(g, seed)
            assert np.array_equal(plan.apply(F.values),
                                  plan.apply(F.values))
            assert _rel(plan.apply(F.values),
                        fast_singular_integral(F, p)) < 1e-14

    def test_wrong_length_rejected(self):
        g = GridSpec(N=4, r=1, L=1.0)
        plan = FastConvolver(g, SingularParams(beta=1.0, gamma=0.0))
        with pytest.raises(SampleShapeError):
            plan.apply(np.ones(7))


@pytest.mark.slow
class TestCostScaling:
    def test_doubling_n_stays_log_linear(self):
        import time

        p = SingularParams(beta=1.3, gamma=-0.3)
        times = []
        for n in (2**16, 2**17):
            g = GridSpec(N=n, r=1, L=1.0)
            F = _random_samples(g, n)
            plan = FastConvolver(g, p, cache_kernels=False)
            plan.apply(F.values)  # warm-up
            t0 = time.perf_counter()
            plan.apply(F.values)
            times.append(time.perf_counter() - t0)
        # Log-linear cost: doubling N should land near 2x and must stay
        # well under 4x even with timer noise.
        assert times[1] / times[0] < 4.0

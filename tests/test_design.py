import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entrywise_V, random_params, se_entry, tiny_amplitude_params

from mortcast.design import (
    KernelParams,
    assemble_V,
    build_covariances,
    build_design,
    build_forecast_covariances,
    cholesky_with_jitter,
    se_kernel,
)
from mortcast.errors import FactorizationError


class TestKernelParams:
    def test_round_trip(self):
        p = KernelParams(1, 2, 3, 4, 5, 6, 7)
        assert KernelParams.from_array(p.as_array()) == p

    @pytest.mark.parametrize("slot", range(7))
    def test_rejects_nonpositive(self, slot):
        vals = np.ones(7)
        vals[slot] = 0.0
        with pytest.raises(ValueError):
            KernelParams.from_array(vals)
        vals[slot] = float("inf")
        with pytest.raises(ValueError):
            KernelParams.from_array(vals)


@pytest.mark.parametrize("call, message", [
    (lambda: KernelParams.from_array(np.ones(6)), r"^expected 7 parameters, got shape \(6,\)$"),
    (lambda: KernelParams.from_array(np.ones((7, 1))),
     r"^expected 7 parameters, got shape \(7, 1\)$"),
    (lambda: build_design([60, 61], [2000, 2001], horizon=-1), "^horizon must be >= 0$"),
], ids=["six-params", "column-params", "negative-horizon"])
def test_input_checks_name_their_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestBuildDesign:
    def test_two_year_three_age_system(self):
        # the 6-row layout with three ages and two years, cohort dummies
        # running from the oldest-age first-year cohort to the youngest-age
        # last-year cohort
        d = build_design([1, 2, 3], [1, 2])
        assert d.T.shape == (6, 2)
        np.testing.assert_array_equal(d.cohort_index, [-2, -1, 0, 1])
        # Z3 rows [0010], [0001], [0100], [0010], [1000], [0100]
        np.testing.assert_array_equal(d.row_cohort, [2, 3, 1, 2, 0, 1])
        # Z1 rows [100], [100], [010], [010], [001], [001]
        np.testing.assert_array_equal(d.row_age, [0, 0, 1, 1, 2, 2])
        tau = np.array([-0.5, 0.5])
        np.testing.assert_array_equal(d.tau, np.tile(tau, 3))
        np.testing.assert_array_equal(d.T, np.column_stack([np.ones(6), d.tau]))

    def test_single_cell(self):
        d = build_design([70], [2000])
        np.testing.assert_array_equal(d.T, [[1.0, 0.0]])
        np.testing.assert_array_equal(d.row_age, [0])
        np.testing.assert_array_equal(d.row_cohort, [0])
        assert d.cohort_index.tolist() == [1930]

    def test_forecast_extension_axes(self):
        # hand enumeration for ages {60, 61}, years {2000, 2001}, h = 1:
        # cohorts 1939..1942; age-60 rows hit 1940, 1941, 1942 and age-61
        # rows hit 1939, 1940, 1941
        d = build_design([60, 61], [2000, 2001], horizon=1)
        assert d.cohort_index.tolist() == [1939, 1940, 1941, 1942]
        np.testing.assert_array_equal(d.row_cohort, [1, 2, 3, 0, 1, 2])
        np.testing.assert_array_equal(d.row_age, [0, 0, 0, 1, 1, 1])
        # centering stays the training-year mean
        assert d.t_bar == 2000.5
        np.testing.assert_array_equal(d.tau[:3], [-0.5, 0.5, 1.5])

    def test_row_invariants(self):
        d = build_design(range(60, 66), range(1990, 2001), horizon=2)
        # age-major: each age owns one block of n + h consecutive rows
        np.testing.assert_array_equal(d.row_age, np.repeat(np.arange(6), 13))
        # the slope row is the centred time, T's second column
        np.testing.assert_array_equal(d.T[:, 1], d.tau)
        # cohort label of each row is year - age
        labels = d.cohort_index[d.row_cohort]
        np.testing.assert_array_equal(labels, d.tau + d.t_bar - d.ages[d.row_age])
        # every cohort column is some cell's cohort
        counts = np.bincount(d.row_cohort, minlength=d.cohort_index.size)
        assert counts.size == d.cohort_index.size and np.all(counts > 0)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            build_design([], [2000])
        with pytest.raises(ValueError):
            build_design([60], [])
        with pytest.raises(ValueError):
            build_design([60, 62], [2000])


class TestSeKernel:
    def test_zero_distance_gives_amplitude_squared(self):
        K = se_kernel([3.0], [3.0], amplitude=1.7, length=4.0)
        assert K[0, 0] == pytest.approx(1.7**2, rel=1e-15)

    def test_documented_value(self):
        # amplitude 1, length 2, |u - v| = 2 -> exp(-4/4) = 1/e under the
        # 2*length denominator convention
        K = se_kernel([0.0], [2.0], amplitude=1.0, length=2.0)
        assert K[0, 0] == pytest.approx(0.36787944117144233, abs=1e-16)

    def test_square_kernel_symmetric_bounded(self):
        ages = np.arange(60, 90)
        K = se_kernel(ages, ages, amplitude=0.8, length=25.0)
        assert K.shape == (30, 30)
        np.testing.assert_allclose(K, K.T, atol=0)
        assert np.all(K > 0) and np.all(K <= 0.8**2 + 1e-16)

    def test_matches_scalar_oracle(self, rng):
        a = rng.uniform(-5, 5, size=4)
        b = rng.uniform(-5, 5, size=3)
        K = se_kernel(a, b, amplitude=1.3, length=3.7)
        for i in range(4):
            for j in range(3):
                assert K[i, j] == pytest.approx(
                    se_entry(a[i], b[j], 1.3, 3.7), rel=1e-15
                )

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            se_kernel([0.0], [1.0], amplitude=0.0, length=1.0)
        with pytest.raises(ValueError):
            se_kernel([0.0], [1.0], amplitude=1.0, length=-2.0)

    @given(
        n=st.integers(2, 12),
        amplitude=st.floats(0.05, 5.0),
        length=st.floats(0.5, 200.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_psd_eigenvalue_floor(self, n, amplitude, length):
        labels = np.arange(n, dtype=float)
        K = se_kernel(labels, labels, amplitude, length)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-10 * amplitude**2


class TestCovariances:
    def test_shapes_for_paper_window(self):
        d = build_design(range(60, 90), range(1947, 2007))
        K1, K2, K3 = build_covariances(random_params(np.random.default_rng(1)), d)
        assert K1.shape == (30, 30)
        assert K2.shape == (30, 30)
        assert K3.shape == (89, 89)  # n + m - 1 = 60 + 30 - 1

    def test_vanishing_amplitude_limit(self):
        d = build_design(range(60, 64), range(2000, 2003))
        K1, _, _ = build_covariances(tiny_amplitude_params(0.1), d)
        assert np.max(np.abs(K1)) <= 1e-300

    def test_extended_design_spans_its_cohort_axis(self, rng):
        p = random_params(rng)
        d0 = build_design(range(60, 64), range(2000, 2006))
        dh = build_design(range(60, 64), range(2000, 2006), horizon=3)
        K3 = build_covariances(p, d0)[2]
        K3h = build_covariances(p, dh)[2]
        assert K3h.shape == (dh.cohort_index.size,) * 2
        np.testing.assert_array_equal(K3h, build_forecast_covariances(p, dh)[1])
        np.testing.assert_array_equal(K3h[: K3.shape[0], : K3.shape[0]], K3)


class TestForecastCovariances:
    def test_degenerate_horizon_zero(self, rng):
        p = random_params(rng)
        d0 = build_design([60, 61, 62], [2000, 2001, 2002])
        K3 = build_covariances(p, d0)[2]
        K3s, K3ss = build_forecast_covariances(p, d0)
        np.testing.assert_allclose(K3s, K3, atol=0)
        np.testing.assert_allclose(K3ss, K3, atol=0)

    def test_axis_lengths(self, rng):
        p = random_params(rng)
        dh = build_design([60, 61], [2000, 2001], horizon=1)
        K3s, K3ss = build_forecast_covariances(p, dh)
        assert K3s.shape == (4, 3)  # (n+h+m-1) x (n+m-1)
        assert K3ss.shape == (4, 4)

    def test_top_block_equals_training_kernel(self, rng):
        p = random_params(rng)
        d0 = build_design(range(60, 64), range(2000, 2006))
        dh = build_design(range(60, 64), range(2000, 2006), horizon=3)
        K3 = build_covariances(p, d0)[2]
        K3s, K3ss = build_forecast_covariances(p, dh)
        k = K3.shape[0]
        np.testing.assert_allclose(K3s[:k, :], K3, atol=0)
        np.testing.assert_allclose(K3ss[:k, :k], K3, atol=0)

    def test_extended_diagonal_is_amplitude_squared(self, rng):
        p = random_params(rng)
        dh = build_design([60, 61, 62], [2000, 2001], horizon=2)
        _, K3ss = build_forecast_covariances(p, dh)
        np.testing.assert_allclose(np.diag(K3ss), p.c**2, rtol=1e-15)


class TestAssembleV:
    def test_noise_only_limit(self):
        d = build_design([60, 61], [2000, 2001, 2002])
        V = assemble_V(tiny_amplitude_params(0.07), d)
        np.testing.assert_allclose(V, 0.07 * np.eye(6), atol=1e-300)

    def test_matches_entrywise_oracle(self, rng):
        p = random_params(rng)
        d = build_design([60, 61], [2000, 2001])
        V = assemble_V(p, d)
        np.testing.assert_allclose(V, entrywise_V(p, d), atol=1e-12)

    def test_entrywise_oracle_medium(self, rng):
        p = random_params(rng)
        d = build_design(range(60, 64), range(2000, 2008))  # nm = 32
        V = assemble_V(p, d)
        np.testing.assert_allclose(V, entrywise_V(p, d), atol=1e-12)

    def test_diagonal_floor(self, rng):
        p = random_params(rng)
        d = build_design(range(60, 65), range(2000, 2005))
        V = assemble_V(p, d)
        assert np.all(np.diag(V) >= p.sigma2 - 1e-15)
        np.testing.assert_allclose(V, V.T, atol=0)

    def test_requires_training_design(self, rng):
        d = build_design([60, 61], [2000, 2001], horizon=1)
        with pytest.raises(ValueError):
            assemble_V(random_params(rng), d)


class TestJitterPolicy:
    def test_clean_matrix_no_jitter(self):
        L, jitter = cholesky_with_jitter(np.eye(3))
        assert jitter == 0.0
        np.testing.assert_allclose(L, np.eye(3))

    def test_singular_psd_gets_one_round(self):
        V = np.ones((3, 3))  # rank one, singular
        L, jitter = cholesky_with_jitter(V)
        assert jitter == pytest.approx(1e-8)
        np.testing.assert_allclose(L @ L.T, V + jitter * np.eye(3), atol=1e-12)

    def test_indefinite_matrix_fails_hard(self):
        V = np.diag([1.0, -1.0])
        with pytest.raises(FactorizationError):
            cholesky_with_jitter(V)

    @pytest.mark.parametrize("entry", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
    def test_nan_entry_fails_hard(self, entry):
        # LAPACK factors a NaN into a NaN factor instead of failing
        V = 2.0 * np.eye(3) + 0.5
        V[entry] = V[entry[::-1]] = np.nan
        with pytest.raises(FactorizationError):
            cholesky_with_jitter(V)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_factor_is_exactly_lower_triangular(self, rng, jittered):
        A = rng.standard_normal((6, 6))
        V = np.ones((6, 6)) if jittered else A @ A.T + 6.0 * np.eye(6)
        L, jitter = cholesky_with_jitter(V)
        assert (jitter > 0.0) == jittered
        assert np.all(np.triu(L, 1) == 0.0)
        np.testing.assert_allclose(L @ L.T, V + jitter * np.eye(6), atol=1e-12)

import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    dense_design,
    dense_gls,
    dense_loglik,
    fd_gradient,
    joint_conditioning,
    random_params,
    tiny_amplitude_params,
)

from mortcast.design import KernelParams, build_design
from mortcast.errors import FactorizationError
from mortcast.forecasts import Forecast, normal_quantile
from mortcast.mixed import (
    blup,
    default_init,
    extended_random_effects,
    fit,
    fitted_surface,
    forecast,
    gls_beta,
    grad_loglik,
    log_likelihood,
    simulate,
    stack_grid,
    unstack_vector,
)

PIN_ALL = np.zeros(7, dtype=bool)  # freeze every hyperparameter in fit()


def pinned_fit(y, design, params):
    """Fit object with hyperparameters fixed at ``params`` (no optimization)."""
    return fit(y, design, init=params, restarts=1, free=PIN_ALL)


class TestLogLikelihood:
    def test_iid_zero_data_closed_form(self):
        d = build_design([60, 61, 62], [2000, 2001])
        sigma2 = 0.25
        p = tiny_amplitude_params(sigma2)
        ll = log_likelihood(np.zeros(6), [0.0, 0.0], p, d)
        assert ll == pytest.approx(-3.0 * math.log(2 * math.pi * sigma2), rel=1e-12)

    def test_matches_dense_inverse_oracle(self, rng):
        d = build_design([60, 61, 62], range(2000, 2004))  # n=4, m=3
        p = random_params(rng)
        y = rng.normal(size=12)
        beta = rng.normal(size=2)
        assert log_likelihood(y, beta, p, d) == pytest.approx(
            dense_loglik(y, beta, p, d), abs=1e-8
        )

    def test_sigma2_doubling_changes_logdet_term(self):
        d = build_design([60, 61], range(2000, 2005))  # nm = 10
        beta = np.array([-2.0, 0.05])
        y = d.T @ beta  # zero residual: only the log-det term moves
        ll1 = log_likelihood(y, beta, tiny_amplitude_params(0.1), d)
        ll2 = log_likelihood(y, beta, tiny_amplitude_params(0.2), d)
        assert ll1 - ll2 == pytest.approx(5.0 * math.log(2.0), rel=1e-12)

    def test_grid_input_equals_stacked(self, rng):
        d = build_design([60, 61], range(2000, 2003))
        p = random_params(rng)
        grid = rng.normal(size=(3, 2))
        assert log_likelihood(grid, [0, 0], p, d) == log_likelihood(
            stack_grid(grid), [0, 0], p, d
        )


class TestGlsBeta:
    def test_reduces_to_ols_under_iid(self, rng):
        d = build_design(range(60, 64), range(1995, 2005))
        y = rng.normal(size=40)
        ols, *_ = np.linalg.lstsq(d.T, y, rcond=None)
        np.testing.assert_allclose(
            gls_beta(y, tiny_amplitude_params(0.3), d), ols, atol=1e-10
        )

    def test_matches_dense_inverse_oracle(self, rng):
        d = build_design([60, 61], range(2000, 2003))  # n=3, m=2
        p = random_params(rng)
        y = rng.normal(size=6)
        np.testing.assert_allclose(
            gls_beta(y, p, d), dense_gls(y, p, d), atol=1e-10
        )

    def test_exact_interpolation(self, rng):
        d = build_design([60, 61, 62], range(2000, 2006))
        p = random_params(rng)
        beta = np.array([1.7, -0.3])
        np.testing.assert_allclose(
            gls_beta(d.T @ beta, p, d), beta, atol=1e-9
        )

    def test_single_year_is_singular(self, rng):
        d = build_design([60, 61, 62], [2000])
        with pytest.raises(np.linalg.LinAlgError):
            gls_beta(rng.normal(size=3), random_params(rng), d)


class TestGradient:
    def test_iid_score_zero_at_variance_mle(self, rng):
        d = build_design([60, 61, 62], range(2000, 2005))
        y = rng.normal(size=15)
        beta, *_ = np.linalg.lstsq(d.T, y, rcond=None)
        s2 = float(np.mean((y - d.T @ beta) ** 2))
        g = grad_loglik(y, beta, tiny_amplitude_params(s2), d)
        assert abs(g[6]) < 1e-8

    def test_matches_finite_differences(self, rng):
        d = build_design([60, 61, 62], range(2000, 2004))
        p = random_params(rng)
        y = rng.normal(size=12)
        beta = rng.normal(size=2)
        g = grad_loglik(y, beta, p, d)
        fd = fd_gradient(y, beta, p, d)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    def test_small_gradient_at_fitted_maximum(self, rng, monkeypatch):
        import mortcast.mixed as mixed_mod

        monkeypatch.setattr(mixed_mod, "TOL", 1e-11)
        d = build_design(range(60, 64), range(1995, 2007))
        true = KernelParams(h1=0.4, l1=16.0, h2=0.05, l2=16.0, c=0.25, s=30.0,
                            sigma2=0.04)
        y = simulate(d, true, [-3.0, -0.04], rng)
        f = fit(y, d, restarts=1)
        g = grad_loglik(y, f.fixed.beta, f.params, d)
        assert np.linalg.norm(g) <= 1e-4 * (1.0 + abs(f.loglik))


class TestFit:
    def test_stop_tolerance_is_a_module_constant(self):
        # a reference fit patches mixed.TOL; no caller passes a tolerance
        import mortcast.mixed as mixed_mod

        assert "tol" not in inspect.signature(fit).parameters
        assert mixed_mod.TOL == 1e-8

    def test_noiseless_affine_data(self):
        d = build_design([60, 61, 62], range(2000, 2008))
        beta = np.array([-2.5, -0.07])
        f = fit(d.T @ beta, d, restarts=1)
        np.testing.assert_allclose(f.fixed.beta, beta, atol=1e-8)
        assert f.sigma2_boundary

    def test_boundary_fit_is_never_converged(self):
        # the ascent's stop rule fires on this input, yet sigma2 went to its
        # boundary: no optimum exists, so the fit must not call itself one
        d = build_design(range(60, 63), range(2000, 2008))
        f = fit(d.T @ np.array([-2.5, -0.03]), d, restarts=1)
        assert f.sigma2_boundary and not f.converged

    def test_trace_monotone_and_convergence_flag(self, rng):
        d = build_design(range(60, 65), range(1990, 2006))
        true = KernelParams(h1=0.3, l1=12.0, h2=0.04, l2=12.0, c=0.2, s=25.0,
                            sigma2=0.03)
        y = simulate(d, true, [-3.0, -0.03], rng)
        f = fit(y, d, restarts=2, seed=3)
        assert np.all(np.diff(f.loglik_trace) >= -1e-9)
        assert f.loglik == f.loglik_trace[-1]
        if f.converged:
            dll = abs(f.loglik_trace[-1] - f.loglik_trace[-2])
            assert dll <= 1e-8 * (1.0 + abs(f.loglik))

    def test_deterministic_given_seed(self, rng):
        d = build_design([60, 61, 62], range(1995, 2010))
        y = simulate(d, random_params(rng), [-3.0, -0.02], rng)
        f1 = fit(y, d, restarts=4, seed=11)
        f2 = fit(y, d, restarts=4, seed=11)
        assert f1.loglik == f2.loglik
        np.testing.assert_array_equal(f1.params.as_array(), f2.params.as_array())

    def test_recovers_simulated_beta(self, rng):
        # single-instance sanity; the distributional version is in acceptance
        d = build_design(range(60, 70), range(1980, 2010))
        true = KernelParams(h1=0.5, l1=20.0, h2=0.05, l2=20.0, c=0.3, s=40.0,
                            sigma2=0.02)
        beta = np.array([-3.0, -0.035])
        y = simulate(d, true, beta, rng)
        f = fit(y, d, restarts=1)
        sd = np.sqrt(np.diag(f.fixed.cov_beta))
        assert np.all(np.abs(f.fixed.beta - beta) <= 4.0 * sd)

    def test_restart_count_validated(self, rng):
        d = build_design([60], [2000, 2001])
        with pytest.raises(ValueError):
            fit(np.zeros(2), d, restarts=0)

    def test_every_restart_failing_names_each_run(self, rng, monkeypatch):
        import mortcast.mixed as mixed_mod

        def failing_chol(V):
            raise FactorizationError("synthetic failure")

        monkeypatch.setattr(mixed_mod, "cholesky_with_jitter", failing_chol)
        d = build_design([60, 61, 62], range(2000, 2008))
        with pytest.raises(FactorizationError) as err:
            fit(rng.normal(size=24), d, restarts=3)
        assert str(err.value) == "all restarts failed: " + "; ".join(
            f"run {run}: synthetic failure" for run in range(3))

    @pytest.mark.parametrize("call, message", [
        (lambda y, d: fit(y[:, :2], d, restarts=1),
         r"^grid shape \(10, 2\) does not match design \(10 years x 3 ages\)$"),
        (lambda y, d: fit(stack_grid(y)[:-1], d, restarts=1),
         r"^expected 30 stacked observations, got shape \(29,\)$"),
        (lambda y, d: fit(y, build_design([60, 61, 62], range(2000, 2010), horizon=2)),
         r"^fit expects a training design \(horizon 0\)$"),
        (lambda y, d: fit(y, d, free=np.ones(6, dtype=bool)), "^free mask must have 7 entries$"),
    ], ids=["grid-shape", "stacked-length", "horizon-design", "free-mask"])
    def test_input_checks_name_their_input(self, rng, call, message):
        d = build_design([60, 61, 62], range(2000, 2010))
        with pytest.raises(ValueError, match=message):
            call(rng.normal(size=(10, 3)) - 3.0, d)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda y, d, p: fit(y, d, restarts=1),
        lambda y, d, p: fit(y, d, init=p, restarts=1),
        lambda y, d, p: log_likelihood(stack_grid(y), [-3.0, 0.0], p, d),
    ], ids=["fit", "fit-init", "log_likelihood"])
    def test_non_finite_y_names_its_cell(self, rng, call, value):
        # it used to blame h1 (fit), fail every restart (fit with init) or
        # return nan (log_likelihood)
        d = build_design([60, 61, 62], range(2000, 2010))
        y = rng.normal(size=(10, 3)) - 3.0
        y[4, 1] = y[7, 0] = value  # (2007, 60) is first in age-major order only
        with pytest.raises(ValueError, match=r"^y is not finite at \(year=2004, age=61\)$"):
            call(y, d, random_params(rng))


class TestBlup:
    def test_zero_residual_gives_zero_effects(self, rng):
        d = build_design([60, 61, 62], range(2000, 2006))
        p = random_params(rng)
        beta = np.array([-2.0, 0.01])
        f = pinned_fit(d.T @ beta, d, p)
        np.testing.assert_allclose(f.random.gamma1, 0.0, atol=1e-10)
        np.testing.assert_allclose(f.random.gamma2, 0.0, atol=1e-10)
        np.testing.assert_allclose(f.random.gamma3, 0.0, atol=1e-10)

    def test_matches_joint_conditioning_oracle(self, rng):
        d = build_design([60, 61, 62], range(2000, 2004))  # n=4, m=3
        p = random_params(rng)
        y = rng.normal(size=12)
        f = pinned_fit(y, d, p)
        re = blup(y, f)
        oracle = joint_conditioning(y, f.fixed.beta, p, d)
        np.testing.assert_allclose(re.gamma1, oracle["gamma1"], atol=1e-8)
        np.testing.assert_allclose(re.gamma2, oracle["gamma2"], atol=1e-8)
        np.testing.assert_allclose(re.gamma3, oracle["gamma3"], atol=1e-8)
        np.testing.assert_allclose(re.cov1, oracle["cov1"], atol=1e-8)
        np.testing.assert_allclose(re.cov2, oracle["cov2"], atol=1e-8)
        np.testing.assert_allclose(re.cov3, oracle["cov3"], atol=1e-8)

    def test_conditioning_reduces_variance(self, rng):
        d = build_design(range(60, 65), range(2000, 2010))
        p = random_params(rng)
        y = rng.normal(size=50)
        f = pinned_fit(y, d, p)
        K1_diag = p.h1**2
        assert np.all(np.diag(f.random.cov1) <= K1_diag + 1e-12)


class TestFittedSurface:
    def test_zero_residual_case(self, rng):
        d = build_design([60, 61], range(2000, 2005))
        p = tiny_amplitude_params(0.09)
        beta = np.array([-2.2, -0.04])
        f = pinned_fit(d.T @ beta, d, p)
        mean, var = fitted_surface(f)
        np.testing.assert_allclose(
            mean, unstack_vector(d.T @ f.fixed.beta, 5, 2), atol=1e-12
        )
        expected_var = (
            np.einsum("ij,jk,ik->i", d.T, f.fixed.cov_beta, d.T) + p.sigma2
        )
        np.testing.assert_allclose(var, unstack_vector(expected_var, 5, 2),
                                   atol=1e-12)

    def test_mean_matches_oracle_assembly(self, rng):
        d = build_design([60, 61, 62], range(2000, 2004))
        p = random_params(rng)
        y = rng.normal(size=12)
        f = pinned_fit(y, d, p)
        oracle = joint_conditioning(y, f.fixed.beta, p, d)
        T, Z1, Z2, Z3 = dense_design(d)
        expected = (
            T @ f.fixed.beta
            + Z1 @ oracle["gamma1"]
            + Z2 @ oracle["gamma2"]
            + Z3 @ oracle["gamma3"]
        )
        mean, var = fitted_surface(f)
        np.testing.assert_allclose(stack_grid(mean), expected, atol=1e-10)
        assert np.all(var >= p.sigma2 - 1e-15)


class TestForecast:
    def test_grids_cover_the_forecast_years_only(self, rng):
        d = build_design([60, 61, 62], range(2000, 2008))
        f = pinned_fit(rng.normal(size=24), d, random_params(rng))
        fc = forecast(f, horizon=4)
        np.testing.assert_array_equal(fc.years, [2008, 2009, 2010, 2011])
        assert fc.mean.shape == fc.variance.shape == (4, 3)

    def test_matches_joint_conditioning_oracle(self, rng):
        d = build_design([60, 61, 62], range(2000, 2004))  # n=4, m=3
        p = random_params(rng)
        y = rng.normal(size=12)
        f = pinned_fit(y, d, p)
        h = 2
        oracle = joint_conditioning(y, f.fixed.beta, p, d, horizon=h)
        ext = extended_random_effects(f, h)
        np.testing.assert_allclose(ext.gamma3, oracle["gamma3"], atol=1e-8)
        np.testing.assert_allclose(ext.cov3, oracle["cov3"], atol=1e-8)

        T, Z1, Z2, Z3 = dense_design(build_design(d.ages, d.train_years, h))
        expected_mean = (
            T @ f.fixed.beta
            + Z1 @ oracle["gamma1"]
            + Z2 @ oracle["gamma2"]
            + Z3 @ oracle["gamma3"]
        )
        mean = np.vstack([fitted_surface(f)[0], forecast(f, h).mean])
        np.testing.assert_allclose(stack_grid(mean), expected_mean, atol=1e-8)

    def test_posterior_at_horizon_zero_is_the_fit(self, rng):
        # one posterior at every horizon: at 0 the cohort block is K3 itself
        d = build_design([60, 61, 62], range(2000, 2006))
        y = rng.normal(size=18)
        f = pinned_fit(y, d, random_params(rng))
        for re in (extended_random_effects(f, 0), blup(y, f)):
            for name in ("gamma1", "cov1", "gamma2", "cov2", "gamma3", "cov3"):
                np.testing.assert_array_equal(getattr(re, name), getattr(f.random, name))

    def test_interval_width_uses_fixed_quantile(self, rng):
        d = build_design([60, 61], range(2000, 2006))
        p = random_params(rng)
        f = pinned_fit(rng.normal(size=12), d, p)
        fc = forecast(f, horizon=3)
        lo, hi = fc.interval(alpha=0.05)
        half = (hi - lo) / 2.0
        np.testing.assert_allclose(
            half, 1.9599639845400543 * np.sqrt(fc.variance), rtol=1e-12
        )
        assert normal_quantile(0.05) == pytest.approx(1.959964, abs=5e-7)

    def test_quantile_is_the_normal_ppf(self):
        import scipy.stats

        for alpha in np.linspace(1e-6, 1.0 - 1e-6, 2001):
            assert normal_quantile(alpha) == scipy.stats.norm.ppf(1.0 - alpha / 2.0)

    def test_quantile_is_ndtri_bit_for_bit_at_every_branch(self):
        """The grid above stops at x = z(alpha) ~ 5.4; this reaches the far
        tail, where Cephes switches to its P2/Q2 pair at x = 8, and both
        sides of its centre/tail switch at 1 - alpha/2 = 1 - exp(-2)."""
        from scipy.special import ndtri

        rng = np.random.default_rng(7)
        edge = 1.0 - 0.1353352832366127  # centre branch while 1 - alpha/2 <= edge
        far = 2.0 * math.exp(-32.0)  # alpha at x = sqrt(-2 log(alpha/2)) = 8
        alphas = np.concatenate([
            10.0 ** rng.uniform(math.log10(2.3e-16), -6.0, 20000),
            # 1 - alpha/2 is exactly edge and its 3 neighbours on either side
            2.0 * (1.0 - (edge + np.arange(-3, 4) * np.spacing(edge))),
            2.0 * (1.0 - edge) * (1.0 + np.linspace(-1e-9, 1e-9, 401)),
            far * (1.0 + np.linspace(-1e-6, 1e-6, 401)),
        ])
        y, x = 1.0 - alphas / 2.0, np.sqrt(-2.0 * np.log(alphas / 2.0))
        assert np.any(y == edge) and np.sum(y < edge) > 200 and np.sum(y > edge) > 200
        assert np.sum(x < 8.0) > 1000 and np.sum(x >= 8.0) > 1000
        ours = np.array([normal_quantile(a) for a in alphas.tolist()])
        np.testing.assert_array_equal(ours, ndtri(1.0 - alphas / 2.0))

    @pytest.mark.parametrize("alpha", [1e-17, 1.1e-16])
    def test_quantile_rejects_an_alpha_that_rounds_the_band_to_infinity(self, alpha):
        # 1 - alpha/2 rounds to 1.0 in double precision
        with pytest.raises(ValueError, match=f"alpha {alpha!r}"):
            normal_quantile(alpha)

    def test_intervals_are_calibrated(self):
        # at the generating hyperparameters the predictive distribution is
        # exact up to the GLS estimate of beta, whose variance it includes
        H, R = 5, 100
        ages, years = np.arange(60, 68), np.arange(1990, 2010)
        d, dh = build_design(ages, years), build_design(ages, years, horizon=H)
        true = KernelParams(h1=0.5, l1=20.0, h2=0.05, l2=20.0, c=0.3, s=40.0,
                            sigma2=0.02)
        rng = np.random.default_rng(20261018)
        z = []
        for _ in range(R):
            y = unstack_vector(simulate(dh, true, [-3.0, -0.035], rng),
                               years.size + H, ages.size)
            fc = forecast(pinned_fit(y[: years.size], d, true), H)
            z.append((y[years.size :] - fc.mean) / np.sqrt(fc.variance))
        z = np.asarray(z)
        coverage = float(np.mean(np.abs(z) <= normal_quantile(0.05)))
        rms_z = float(np.sqrt(np.mean(z**2)))
        assert 0.92 <= coverage <= 0.98 and 0.9 <= rms_z <= 1.1, (coverage, rms_z)

    def test_rejects_non_finite_grids(self):
        grid = np.ones((2, 3))
        for bad in ("mean", "variance"):
            for value in (np.nan, np.inf):
                grids = {"mean": grid.copy(), "variance": grid.copy()}
                grids[bad][1, 2] = value
                with pytest.raises(ValueError, match="non-finite"):
                    Forecast(ages=np.arange(60, 63), years=np.arange(2000, 2002),
                             **grids)

    @pytest.mark.parametrize("call, message", [
        (lambda g: Forecast(np.arange(60, 63), np.arange(2000, 2003), g, g),
         "^mean grid shape does not match axes$"),
        (lambda g: Forecast(np.arange(60, 63), np.arange(2000, 2002), g, g.T),
         "^variance grid shape does not match mean$"),
        (lambda g: Forecast(np.arange(60, 63), np.arange(2000, 2002), g, -1e-3 * g),
         "^negative forecast variance$"),
        (lambda g: Forecast(np.arange(60, 63), np.arange(2000, 2002), g, g).year_slice(2002),
         "^year 2002 not covered by this forecast$"),
    ], ids=["mean-shape", "variance-shape", "negative-variance", "year-outside"])
    def test_forecast_checks_name_their_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(np.ones((2, 3)))

    def test_variance_floor_is_noise(self, rng):
        d = build_design([60, 61, 62], range(2000, 2010))
        p = random_params(rng)
        f = pinned_fit(rng.normal(size=30), d, p)
        fc = forecast(f, horizon=5)
        assert np.all(fc.variance >= p.sigma2 - 1e-12)

    def test_horizon_validated(self, rng):
        d = build_design([60, 61], range(2000, 2004))
        f = pinned_fit(rng.normal(size=8), d, random_params(rng))
        with pytest.raises(ValueError):
            forecast(f, 0)


class TestProperties:
    def test_shift_equivariance(self, rng):
        # adding T @ delta moves beta-hat by delta and leaves the BLUPs alone
        d = build_design([60, 61, 62], range(2000, 2007))
        p = random_params(rng)
        y = rng.normal(size=21)
        delta = np.array([0.8, -0.05])
        f0 = pinned_fit(y, d, p)
        f1 = pinned_fit(y + d.T @ delta, d, p)
        np.testing.assert_allclose(f1.fixed.beta - f0.fixed.beta, delta,
                                   atol=1e-10)
        np.testing.assert_allclose(f1.random.gamma1, f0.random.gamma1, atol=1e-10)
        np.testing.assert_allclose(f1.random.gamma2, f0.random.gamma2, atol=1e-10)
        np.testing.assert_allclose(f1.random.gamma3, f0.random.gamma3, atol=1e-10)

    def test_default_init_positive(self, rng):
        d = build_design(range(60, 70), range(1990, 2010))
        y = simulate(d, random_params(rng), [-3.0, -0.02], rng)
        p0 = default_init(y, d)
        assert np.all(p0.as_array() > 0)


@pytest.mark.parametrize("ages, years", [
    ([70], range(1990, 2002)),
    ([70, 71], range(1990, 2000)),
    (range(60, 68), [2000, 2001]),
    ([60, 61, 62], [2000]),
    (range(60, 90), range(1940, 2010)),
    (range(0, 100), range(1900, 2000)),
], ids=["1x12", "2x10", "8x2", "3x1", "30x70", "100x100"])
def test_projection_rank(ages, years):
    # beyond those of a grid with fewer cells than columns, Z's only null
    # directions are Z1 1 = Z3 1 and Z2 1 = Z3 c + Z1 a - t_bar Z1 1: the
    # projection keeps min(N, q - 2) of its q columns
    import mortcast.mixed as mixed_mod

    d = build_design(ages, years)
    N, q = d.tau.size, 2 * d.n_ages + d.cohort_index.size
    k = mixed_mod._Projection(np.zeros(N), d).R.shape[0]
    assert k == min(N, q - 2)
    assert k == np.linalg.matrix_rank(np.hstack(dense_design(d)[1:]))


class TestOneFactorization:
    """Every mixed-model quantity comes from one factor-and-solve of V."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Cholesky calls made through the mixed namespace, projections of
        Z, posteriors and evaluations of the model."""
        import mortcast.mixed as mixed_mod

        counts = {"chol": 0, "proj": 0, "posterior": 0, "objective": 0}

        def counting(key, real):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(mixed_mod, "cholesky_with_jitter",
                            counting("chol", mixed_mod.cholesky_with_jitter))
        monkeypatch.setattr(mixed_mod, "_posterior",
                            counting("posterior", mixed_mod._posterior))
        monkeypatch.setattr(mixed_mod._Projection, "__init__",
                            counting("proj", mixed_mod._Projection.__init__))
        monkeypatch.setattr(mixed_mod._Evaluation, "__init__",
                            counting("objective", mixed_mod._Evaluation.__init__))
        return counts

    @staticmethod
    def data(rng):
        d = build_design(range(60, 64), range(1995, 2007))
        true = KernelParams(h1=0.4, l1=16.0, h2=0.05, l2=16.0, c=0.25, s=30.0,
                            sigma2=0.04)
        return simulate(d, true, [-3.0, -0.04], rng), d

    def test_fit_factors_once_per_evaluation(self, rng, counts):
        fit(*self.data(rng), restarts=1)
        assert counts["objective"] > 1
        # the posterior reads the winning evaluation: no factorization of its own
        assert counts["chol"] == counts["objective"]

    def test_estimates_read_the_fit_and_load_evaluates_once(self, rng, tmp_path, counts):
        from mortcast.artifacts import load_fit, save_fit

        def work():
            return counts["chol"], counts["proj"]

        y, d = self.data(rng)
        f = fit(y, d, restarts=1)
        assert counts["proj"] == 1
        chol, proj = work()
        forecast(f, 3)
        fitted_surface(f)
        extended_random_effects(f, 3)
        assert work() == (chol, proj)
        blup(y, f)  # takes its own y: one evaluation
        assert work() == (chol + 1, proj + 1)
        save_fit(f, tmp_path / "fit.json")
        posteriors = counts["posterior"]
        loaded = load_fit(tmp_path / "fit.json")
        assert work() == (chol + 2, proj + 2)
        assert counts["posterior"] == posteriors  # none until something reads it
        forecast(loaded, 3)
        assert work() == (chol + 2, proj + 2)

    def test_reloaded_fit_forecasts_bit_for_bit(self, rng, tmp_path):
        from mortcast.artifacts import load_fit, save_fit

        f = fit(*self.data(rng), restarts=1)
        save_fit(f, tmp_path / "fit.json")
        fc0, fc1 = forecast(f, 4), forecast(load_fit(tmp_path / "fit.json"), 4)
        np.testing.assert_array_equal(fc1.mean, fc0.mean)
        np.testing.assert_array_equal(fc1.variance, fc0.variance)


class TestJitterReported:
    # sigma2 = 1e-20 on a design with N = 30 rows and only q = 18 random
    # effect columns: the dense V has rank 18 and needs the jitter round
    DESIGN = dict(ages=range(60, 63), train_years=range(2000, 2010))
    PARAMS = KernelParams(h1=0.5, l1=10.0, h2=0.05, l2=10.0, c=0.3, s=20.0,
                          sigma2=1e-20)

    def _jitter_warnings(self, caplog):
        return [r for r in caplog.records
                if r.name == "mortcast" and r.levelname == "WARNING"
                and "jitter" in r.getMessage()]

    def test_evaluation_logs_jitter(self, caplog):
        # the evaluator factors only the k x k matrix B = sigma2 I + R K R'
        # on range(Z); a cohort length scale of 1e8 makes K3 rank 1 in
        # practice, so B itself is numerically singular at sigma2 = 1e-20
        d = build_design(**self.DESIGN)
        with caplog.at_level("WARNING", logger="mortcast"):
            log_likelihood(np.zeros(30), [0.0, 0.0], replace(self.PARAMS, s=1e8), d)
        assert len(self._jitter_warnings(caplog)) == 1

    def test_assemble_v_logs_jitter(self, caplog):
        from mortcast.design import assemble_V

        d = build_design(**self.DESIGN)
        with caplog.at_level("WARNING", logger="mortcast"):
            assemble_V(self.PARAMS, d)
        assert len(self._jitter_warnings(caplog)) == 1

    def test_clean_factorization_is_silent(self, caplog):
        d = build_design(**self.DESIGN)
        with caplog.at_level("WARNING", logger="mortcast"):
            clean = replace(self.PARAMS, sigma2=0.1)
            log_likelihood(np.zeros(30), [0.0, 0.0], clean, d)
        assert self._jitter_warnings(caplog) == []

    def test_rejected_trials_are_silent(self, caplog):
        # the noiseless grid of the CLI's exit-2 test: sigma2 collapses and
        # many line-search trials need jitter, but the optimizer rejects
        # them and the returned fit keeps a clean factor
        from mortcast.data import central_to_initial, logit

        d = build_design(range(60, 65), range(1995, 2015))
        m = [[math.log1p(math.exp(-3 + 0.1 * (x - 60) - 0.02 * (t - 1995)))
              for x in range(60, 65)] for t in range(1995, 2015)]
        y = logit(central_to_initial(m))
        with caplog.at_level("WARNING", logger="mortcast"):
            f = fit(y, d, restarts=1)
        assert f.evaluation.jitter == 0.0 and f.sigma2_boundary
        assert self._jitter_warnings(caplog) == []

    def test_kept_jittered_factor_logged_once(self, rng, caplog, monkeypatch):
        # every factorization reports jitter: the ascent rejects every trial
        # silently and returns its jittered start, which the fit logs once
        import mortcast.mixed as mixed_mod

        real_chol = mixed_mod.cholesky_with_jitter
        monkeypatch.setattr(mixed_mod, "cholesky_with_jitter",
                            lambda V: (real_chol(V)[0], 1e-12))
        with caplog.at_level("WARNING", logger="mortcast"):
            f = fit(*TestOneFactorization.data(rng), restarts=1)
        assert f.evaluation.jitter == 1e-12
        assert len(self._jitter_warnings(caplog)) == 1


class TestJitteredTrialsRejected:
    """An accepted optimizer step never comes from a jittered factorization,
    whose likelihood belongs to V + jI rather than to V."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        import mortcast.mixed as mixed_mod

        seen = []
        real_init = mixed_mod._Evaluation.__init__

        def recording_init(self, *args):
            real_init(self, *args)
            seen.append(self)

        monkeypatch.setattr(mixed_mod._Evaluation, "__init__", recording_init)
        return seen

    @staticmethod
    def assert_trace_is_clean(f, evaluations):
        jittered = {ev.ll for ev in evaluations if ev.jitter > 0.0}
        clean = {ev.ll for ev in evaluations if ev.jitter == 0.0}
        assert jittered, "the fit met no jittered trial point"
        assert f.n_iter > 1
        for ll in f.loglik_trace[1:]:
            assert ll in clean and ll not in jittered

    def test_noiseless_fit(self, evaluations):
        # noiseless data with a smooth cohort effect drive sigma2 towards 0
        # while the cohort kernel stays: B = sigma2 I + R K R' then loses
        # rank, trial points need real jitter, and some of them would pass
        # the line search if they were not rejected
        d = build_design(range(60, 65), range(1995, 2015))
        cohort_effect = 0.05 * np.sin(d.cohort_index / 5.0)
        f = fit(d.T @ np.array([-2.5, -0.06]) + cohort_effect[d.row_cohort], d, restarts=1)
        self.assert_trace_is_clean(f, evaluations)

    def test_every_other_factorization_jittered(self, rng, evaluations, monkeypatch):
        # every second factorization reports a negligible jitter, leaving the
        # factor itself unchanged: the ascent must step through clean ones
        # only. When those factorizations raise instead, their trials are
        # rejected alike, so the ascent takes the very same path.
        import mortcast.mixed as mixed_mod

        real_chol = mixed_mod.cholesky_with_jitter

        def alternating_chol(raising):
            calls = itertools.count(1)

            def chol(V):
                L, jitter = real_chol(V)
                if next(calls) % 2:
                    return L, jitter
                if raising:
                    raise FactorizationError("synthetic failure")
                return L, 1e-300
            return chol

        y, d = TestOneFactorization.data(rng)
        monkeypatch.setattr(mixed_mod, "cholesky_with_jitter", alternating_chol(False))
        f = fit(y, d, restarts=1)
        self.assert_trace_is_clean(f, evaluations)
        monkeypatch.setattr(mixed_mod, "cholesky_with_jitter", alternating_chol(True))
        raised = fit(y, d, restarts=1)
        np.testing.assert_array_equal(raised.loglik_trace, f.loglik_trace)
        assert raised.params == f.params

import inspect
import math
import warnings

import numpy as np
import pytest

from mortcast import cbd
from mortcast.cbd import (
    CbdFit,
    _log_factorial,
    cbd_poisson_loglik,
    cohort_labels,
    death_rate,
    estimate_rw,
    fit_cbd,
    fitted_logit,
    forecast_cbd,
    linear_predictor,
    transform_parameters,
)
from mortcast.data import cohort_cols, inverse_logit, synthesize_counts
from oracles import cbd_sweeps_reference


def true_curves(ages, years, cohort_amp=0.05):
    """Smooth synthetic parameter curves on the CBD scale."""
    idx = np.arange(years.size, dtype=float)
    kappa1 = -2.5 - 0.02 * idx + 0.08 * np.sin(idx / 4.0)
    kappa2 = 0.09 + 0.004 * np.cos(idx / 3.0)
    cohorts = cohort_labels(ages, years)
    gamma3 = cohort_amp * np.sin(cohorts / 6.0)
    return kappa1, kappa2, gamma3


def exact_counts(ages, years, kappa1, kappa2, gamma3, exposure=1e8):
    """Deterministic counts sitting exactly on the model: D = E * m(eta)."""
    eta = linear_predictor(kappa1, kappa2, gamma3, ages, years)
    E = np.full(eta.shape, exposure)
    return E * death_rate(eta), E


def align_to_constraints(kappa1, kappa2, gamma3, included, ages, years):
    """Independent re-derivation of the constraint gauge for comparisons."""
    cohorts = cohort_labels(ages, years)
    cs = cohorts[included].astype(float)
    X = np.column_stack([np.ones(cs.size), cs])
    phi, *_ = np.linalg.lstsq(X, gamma3[included], rcond=None)
    k1, k2, g3 = transform_parameters(
        kappa1, kappa2, gamma3, phi[0], phi[1], ages, years
    )
    return k1, k2, g3


def make_fit(ages, years, kappa1, kappa2, gamma3=None, included=None):
    """CbdFit shim for testing the forecasting layer in isolation."""
    ages = np.asarray(ages, dtype=int)
    years = np.asarray(years, dtype=int)
    cohorts = cohort_labels(ages, years)
    if gamma3 is None:
        gamma3 = np.zeros(cohorts.size)
    if included is None:
        cols = (years[:, None] - ages[None, :]) - cohorts[0]
        counts = np.bincount(cols.ravel(), minlength=cohorts.size)
        included = counts >= 3
    return CbdFit(
        ages=ages,
        years=years,
        kappa1=np.asarray(kappa1, dtype=float),
        kappa2=np.asarray(kappa2, dtype=float),
        gamma3=np.asarray(gamma3, dtype=float),
        cohorts=cohorts,
        included=np.asarray(included, dtype=bool),
        x_bar=float(np.mean(ages)),
        loglik=0.0,
        loglik_trace=np.zeros(1),
        constraint_residuals=(0.0, 0.0),
        converged=True,
        n_sweeps=1,
    )


class TestPoissonLoglik:
    def test_zero_deaths(self):
        ages = np.arange(60, 63)
        years = np.arange(2000, 2004)
        k1 = np.full(4, -2.0)
        k2 = np.zeros(4)
        g3 = np.zeros(6)
        D = np.zeros((4, 3))
        E = np.full((4, 3), 100.0)
        eta = linear_predictor(k1, k2, g3, ages, years)
        expected = -float(np.sum(E * death_rate(eta)))
        assert cbd_poisson_loglik(k1, k2, g3, ages, years, D, E) == pytest.approx(
            expected, rel=1e-14
        )

    def test_single_cell_closed_form(self):
        # kappa1 = gamma = 0 and kappa2 weight 0 give m = log 2
        ages, years = np.array([70]), np.array([2000])
        D = np.array([[5.0]])
        E = np.array([[40.0]])
        ll = cbd_poisson_loglik([0.0], [0.0], [0.0], ages, years, D, E)
        m = math.log(2.0)
        expected = 5.0 * math.log(40.0 * m) - 40.0 * m - math.log(math.factorial(5))
        assert ll == pytest.approx(expected, rel=1e-14)

    def test_matches_termwise_oracle(self, rng):
        ages = np.arange(60, 63)
        years = np.arange(2000, 2003)
        k1 = rng.normal(-2.0, 0.3, size=3)
        k2 = rng.normal(0.1, 0.02, size=3)
        g3 = rng.normal(0.0, 0.1, size=5)
        E = rng.uniform(50, 500, size=(3, 3))
        D = rng.poisson(E * 0.1).astype(float)
        ll = cbd_poisson_loglik(k1, k2, g3, ages, years, D, E)
        x_bar = ages.mean()
        acc = 0.0
        for i, t in enumerate(years):
            for j, x in enumerate(ages):
                eta = k1[i] + k2[i] * (x - x_bar) + g3[(t - x) - (2000 - 62)]
                m = math.log1p(math.exp(eta))
                acc += (
                    D[i, j] * math.log(E[i, j] * m)
                    - E[i, j] * m
                    - math.lgamma(D[i, j] + 1.0)
                )
        assert ll == pytest.approx(acc, abs=1e-10)

    def test_input_validation(self):
        ages, years = np.array([60]), np.array([2000])
        with pytest.raises(ValueError):
            cbd_poisson_loglik([0.0], [0.0], [0.0], ages, years,
                               np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            cbd_poisson_loglik([0.0], [0.0], [0.0], ages, years,
                               np.array([[-1.0]]), np.array([[10.0]]))

    @pytest.mark.parametrize("grid, value", [(0, np.nan), (1, np.nan), (1, np.inf)],
                             ids=["nan-D", "nan-E", "inf-E"])
    @pytest.mark.parametrize("func", ["fit_cbd", "cbd_poisson_loglik"])
    def test_non_finite_counts_rejected(self, func, grid, value):
        ages, years = np.arange(60, 66), np.arange(2000, 2010)
        counts = exact_counts(ages, years, *true_curves(ages, years))
        counts[grid][3, 2] = value
        D, E = counts
        with pytest.raises(ValueError, match="finite"):
            if func == "fit_cbd":
                fit_cbd(D, E, ages, years)
            else:
                cbd_poisson_loglik(*true_curves(ages, years), ages, years, D, E)


def _ulps(a, b):
    """|a - b| in units of the last place of the larger of the two."""
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


class TestKernelsAgainstScipy:
    """The numpy/stdlib Poisson kernels against scipy.special oracles,
    including the q = 0 stress cases: cells with no deaths and cells with
    zero weight (and so zero expected deaths)."""

    def test_logistic_matches_expit(self):
        from scipy.special import expit

        named = np.array([-800.0, -30.0, -1e-300, 0.0, 30.0, 800.0])
        grid = np.linspace(-800.0, 800.0, 160_001)
        with np.errstate(all="raise"):
            got_named, got = inverse_logit(named), inverse_logit(grid)
        assert np.all(_ulps(got_named, expit(named)) <= 2)
        assert isinstance(inverse_logit(-800.0), float)
        # numpy's exp and the C library's differ in the last place, so the
        # two routes can land 3 ulp apart (2 points of this grid); each is
        # within 2 ulp of the logistic taken in extended precision. Below
        # eta = -709.78 expit's exp(-eta) overflows and it returns 0 where
        # the exact value is subnormal, so it is compared only above that.
        ref = expit(grid)
        normal = ref >= np.finfo(float).tiny
        assert np.all(_ulps(got[normal], ref[normal]) <= 3)
        if np.finfo(np.longdouble).nmant >= 63:
            with np.errstate(under="ignore"):
                exact = (1.0 / (1.0 + np.exp(-grid.astype(np.longdouble)))).astype(float)
            assert np.all(_ulps(got, exact) <= 2)

    def test_loglik_with_empty_and_unweighted_cells(self):
        from scipy.special import gammaln, xlogy

        ages, years = np.arange(60, 66), np.arange(2000, 2010)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3, exposure=500.0)
        D[0] = 0.0                      # a year without deaths
        D[4, 2] = 0.0
        w = np.ones_like(D)
        w[:, 0] = 0.0                   # unweighted cells: mu = 0 there
        w[7, 3] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            ll = cbd_poisson_loglik(k1, k2, g3, ages, years, D, E, weights=w)
        mu = w * E * death_rate(linear_predictor(k1, k2, g3, ages, years))
        expected = np.sum(xlogy(w * D, mu) - mu) - np.sum(w * gammaln(D + 1.0))
        assert np.isfinite(ll)
        assert ll == pytest.approx(expected, rel=1e-12)

    def test_log_factorials_match_gammaln(self):
        from scipy.special import gammaln

        q = inverse_logit(np.linspace(-9.0, -0.5, 600)).reshape(20, 30)
        D, _ = synthesize_counts(q)
        D = np.concatenate([[0.0, 0.5, 1.0, 1.5, 2.0], D.ravel()])
        assert np.any(D != np.round(D))
        np.testing.assert_allclose(_log_factorial(D), gammaln(D + 1.0),
                                   rtol=1e-13, atol=1e-15)


class TestFitCbd:
    def test_sweep_cap_is_a_module_constant(self):
        # a test that stops a fit early patches cbd.MAX_SWEEPS, as it does cbd.TOL
        assert "max_sweeps" not in inspect.signature(fit_cbd).parameters
        assert cbd.MAX_SWEEPS == 1000

    def test_large_exposure_consistency(self):
        ages = np.arange(60, 70)
        years = np.arange(1990, 2020)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3)
        f = fit_cbd(D, E, ages, years)
        assert f.converged
        tk1, tk2, tg3 = align_to_constraints(k1, k2, g3, f.included, ages, years)
        assert np.max(np.abs(f.kappa1 - tk1)) < 1e-2
        assert np.max(np.abs(f.kappa2 - tk2)) < 1e-2
        assert np.max(np.abs(f.gamma3[f.included] - tg3[f.included])) < 1e-2

    def test_exposure_level_leaves_the_maximum_unmoved(self, monkeypatch):
        # with E flat the log-likelihood is E * sum(m log mu - mu) + const, so
        # rate-only input loses nothing to the constant SYNTH_EXPOSURE; the
        # default TOL stop scales with |LL| and would end each level early
        monkeypatch.setattr(cbd, "TOL", 0.0)
        ages = np.arange(60, 70)
        years = np.arange(1990, 2015)
        eta = linear_predictor(*true_curves(ages, years), ages, years)
        noise = np.random.default_rng(7).standard_normal(eta.shape)
        m = death_rate(eta) * np.exp(0.05 * noise)
        fits = [fit_cbd(E * m, np.full(m.shape, E), ages, years) for E in (1e2, 1e5, 1e7)]
        for f in fits[::2]:
            for name in ("kappa1", "kappa2", "gamma3"):
                np.testing.assert_allclose(getattr(f, name), getattr(fits[1], name),
                                           rtol=0, atol=1e-4)

    def test_transform_leaves_rates_unchanged(self):
        ages = np.arange(60, 66)
        years = np.arange(2000, 2015)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3, exposure=1e5)
        f = fit_cbd(D, E, ages, years)
        rates = death_rate(fitted_logit(f))
        for phi1, phi2 in [(0.37, -0.021), (-1.2, 0.05), (3.0, 1.0)]:
            nk1, nk2, ng3 = transform_parameters(
                f.kappa1, f.kappa2, f.gamma3, phi1, phi2, ages, years
            )
            new_rates = death_rate(
                linear_predictor(nk1, nk2, ng3, ages, years)
            )
            np.testing.assert_allclose(new_rates, rates, atol=1e-12)

    def test_constraints_hold_after_every_sweep(self, monkeypatch):
        ages = np.arange(60, 66)
        years = np.arange(2000, 2012)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3, exposure=1e6)
        for sweeps in (1, 2, 5):
            monkeypatch.setattr(cbd, "MAX_SWEEPS", sweeps)
            f = fit_cbd(D, E, ages, years)
            assert f.n_sweeps == sweeps
            r1, r2 = f.constraint_residuals
            assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6

    def test_trace_monotone(self, rng):
        ages = np.arange(60, 66)
        years = np.arange(2000, 2015)
        k1, k2, g3 = true_curves(ages, years)
        eta = linear_predictor(k1, k2, g3, ages, years)
        E = np.full(eta.shape, 2e4)
        D = rng.poisson(E * death_rate(eta)).astype(float)
        f = fit_cbd(D, E, ages, years)
        assert np.all(np.diff(f.loglik_trace) >= -1e-9)
        assert f.converged

    def test_sparse_cohorts_pinned_to_zero(self):
        ages = np.arange(60, 66)
        years = np.arange(2000, 2012)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3)
        f = fit_cbd(D, E, ages, years)
        # the two outermost cohorts on each side have 1 and 2 cells
        assert not f.included[0] and not f.included[1]
        assert not f.included[-1] and not f.included[-2]
        assert np.all(f.gamma3[~f.included] == 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_cbd(np.zeros((2, 2)), np.ones((3, 2)), [60, 61], [2000, 2001])
        with pytest.raises(ValueError):
            fit_cbd(np.zeros((2, 2)), np.zeros((2, 2)), [60, 61], [2000, 2001])

    def test_underflowing_trial_point_warns_nothing(self):
        # on this sparse grid a damped-away trial point underflows a cell's
        # death rate to 0; its -inf log-likelihood is the intended rejection
        # and must not reach the user as a divide-by-zero RuntimeWarning
        rng = np.random.default_rng(0)
        m, n = int(rng.integers(5, 8)), int(rng.integers(6, 23))
        ages, years = np.arange(60, 60 + m), np.arange(2000, 2000 + n)
        E = rng.uniform(5, 200, (n, m))
        eta = (-3 + 0.1 * (ages - ages.mean())[None, :]
               - 0.02 * (years - years.mean())[:, None])
        D = rng.poisson(E * death_rate(eta)).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = fit_cbd(D, E, ages, years)
        assert (m, n) == (7, 16)
        assert f.converged and f.n_sweeps == 255
        assert f.loglik == pytest.approx(-196.5594177586721, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grid", ["a6", "corners"])
    def test_reported_loglik_is_the_loglik_of_the_fitted_curves(self, grid):
        # the sweeps carry each accepted point's cell terms over from its
        # likelihood check; the reported value must still be the Poisson
        # LL of the returned curves over the kept cohorts
        if grid == "a6":
            rng = np.random.default_rng(606)
            ages, years = np.arange(60, 70), np.arange(1990, 2020)
            k1, k2, g3 = true_curves(ages, years)
            E = np.full((years.size, ages.size), 1e5)
        else:
            rng = np.random.default_rng(7)
            ages, years = np.arange(60, 66), np.arange(2000, 2012)
            k1, k2, g3 = true_curves(ages, years, cohort_amp=0.1)
            E = np.full((years.size, ages.size), 2e3)
        eta = linear_predictor(k1, k2, g3, ages, years)
        D = rng.poisson(E * death_rate(eta)).astype(float)
        f = fit_cbd(D, E, ages, years)
        assert f.converged and f.n_sweeps > 1
        if grid == "corners":
            assert not f.included[0] and not f.included[-1]
        assert f.loglik == f.loglik_trace[-1]
        weights = f.included[cohort_cols(ages, years, f.cohorts)]
        ll = cbd_poisson_loglik(f.kappa1, f.kappa2, f.gamma3, ages, years,
                                D, E, weights=weights)
        assert f.loglik == pytest.approx(ll, rel=1e-12, abs=0.0)


def _cell_terms_reference(eta, wD, wE):
    """The cell kernel's general form term by term: no branch on the data
    and no in-place operation."""
    z = np.exp(-np.abs(eta))
    rate = np.maximum(eta, 0.0) + np.log1p(z)
    sig = np.where(eta >= 0, 1.0, z) / (1.0 + z)
    r1 = np.where(eta < -30.0, 1.0, sig / np.maximum(rate, 1e-300))
    U = wD * r1 - wE * sig
    H = (1.0 - sig) * U - wD * r1**2
    return rate, U, H


def _poisson_loglik_reference(rate, wD, wE, log_factorials):
    """The weighted Poisson LL with a masked log: D log(mu) is 0 where the
    weighted count is 0."""
    mu = wE * rate
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu, out=np.zeros_like(mu), where=wD != 0)
    return float(np.sum(wD * log_mu - mu) - log_factorials)


#: eta grids of the kernel's bit tests, 40 years x 25 ages each
KERNEL_GRIDS = {
    "within [-30, 0)": np.linspace(-29.5, -1e-3, 1000),
    "crosses 0": np.linspace(-6.0, 4.0, 1000),
    "reaches below -30": np.linspace(-800.0, -0.5, 1000),
    "holds -30": np.r_[-30.0, np.linspace(-12.0, -0.01, 999)],
    "holds 0": np.r_[np.linspace(-12.0, -0.01, 999), 0.0],
}


def _kernel_case(name):
    """(eta, wD, wE, weights, D, E) on a 40 x 25 grid: Poisson counts, with
    cells of no deaths and cells of zero weight."""
    rng = np.random.default_rng(list(KERNEL_GRIDS).index(name))
    eta = rng.permutation(KERNEL_GRIDS[name]).reshape(40, 25)
    E = rng.uniform(10.0, 5e3, eta.shape)
    D = rng.poisson(E * np.minimum(death_rate(eta), 1.0)).astype(float)
    D[rng.random(eta.shape) < 0.1] = 0.0
    w = (rng.random(eta.shape) > 0.15).astype(float)
    return eta, w * D, w * E, w, D, E


class TestCellKernel:
    """``_cell_terms`` takes one exp per cell for the rate and the logistic."""

    grid = np.linspace(-800.0, 800.0, 400_001)

    def test_rate_within_two_ulp_of_death_rate(self):
        rate, _, _ = cbd._cell_terms(self.grid, np.ones_like(self.grid), np.ones_like(self.grid))
        assert np.all(_ulps(rate, death_rate(self.grid)) <= 2)

    def test_logistic_is_inverse_logit_bit_for_bit(self):
        # with no deaths and unit exposure U = -sigma exactly
        _, U, _ = cbd._cell_terms(self.grid, np.zeros_like(self.grid), np.ones_like(self.grid))
        assert np.array_equal(-U, inverse_logit(self.grid))

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_terms_are_the_general_form_bit_for_bit(self, name):
        # the branch taken when every cell has -30 <= eta < 0 changes no bit
        eta, wD, wE, *_ = _kernel_case(name)
        for got, ref in zip(cbd._cell_terms(eta, wD, wE), _cell_terms_reference(eta, wD, wE)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_loglik_is_the_masked_log_form_bit_for_bit(self, name):
        # cells with no deaths and cells of zero weight take D log(mu) = 0
        eta, wD, wE, w, D, E = _kernel_case(name)
        assert np.any((wD == 0) & (wE > 0)) and np.any(wE == 0)
        rate = death_rate(eta)
        lf = float(np.sum(w * _log_factorial(D)))
        ref = _poisson_loglik_reference(rate, wD, wE, lf)
        assert cbd._poisson_loglik(rate, wD, wE, lf, 1.0 * (wD == 0)) == ref
        # cbd_poisson_loglik shares the kernel; curves at the grid's level
        ages, years = np.arange(60, 85), np.arange(1980, 2020)
        curves = (eta.mean(axis=1), np.full(years.size, 0.05),
                  np.zeros(cohort_labels(ages, years).size))
        rate = death_rate(linear_predictor(*curves, ages, years))
        ll = cbd_poisson_loglik(*curves, ages, years, D, E, weights=w)
        assert ll == _poisson_loglik_reference(rate, wD, wE, lf)

    @pytest.mark.parametrize("wD, wE", [(3.0, 50.0), (0.0, 50.0), (1e4, 1e5)])
    def test_far_negative_eta_stays_finite_and_concave(self, wD, wE):
        # H < 0 in exact arithmetic, about -(wD / 2 + wE) exp(eta) down there;
        # with deaths it rounds to 0 once exp(eta) is below the rounding of
        # U ~ wD, as the term-by-term form D sigma'/m - E sigma' - D (sigma/m)^2
        # does too
        eta = np.array([-800.0, -745.0, -30.5])
        D, E = np.full(3, wD), np.full(3, wE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, U, H = cbd._cell_terms(eta, D, E)
        assert np.all(np.isfinite(U)) and np.all(np.isfinite(H))
        assert np.all(H <= 0.0) and H[-1] < 0.0
        if wD == 0.0:
            assert H[1] < 0.0


def _rate_only_backtest_counts():
    """A CBD population of the benchmark's geometry (70 years x 30 ages,
    random-walk kappas, exposures falling with age) with Poisson deaths,
    passed on as rates only: the counts a backtest synthesizes from it."""
    rng = np.random.default_rng(0)
    ages, years = np.arange(60, 90), np.arange(1947, 2017)
    steps = rng.standard_normal((2, years.size - 1))
    kappa1 = -2.8 + np.cumsum(np.r_[0.0, -0.015 + 0.02 * steps[0]])
    kappa2 = 0.10 + np.cumsum(np.r_[0.0, 0.0003 + 0.002 * steps[1]])
    gamma3 = np.cumsum(0.01 * rng.standard_normal(cohort_labels(ages, years).size))
    E = np.round(1e5 * np.exp(-0.05 * (ages - 60)))[None, :] * np.ones((years.size, 1))
    eta = linear_predictor(kappa1, kappa2, gamma3, ages, years)
    m = rng.poisson(E * death_rate(eta)) / E
    return (ages, years, *synthesize_counts(-np.expm1(-m)))


def _sweep_case(name):
    """(D, E, ages, years) of one grid the sweeps are checked on."""
    if name in ("a6", "corners", "single-age"):
        rng, ages, years, amp, exposure = {
            "a6": (606, np.arange(60, 70), np.arange(1990, 2020), 0.05, 1e5),
            "corners": (7, np.arange(60, 66), np.arange(2000, 2012), 0.1, 2e3),
            "single-age": (3, np.arange(60, 63), np.arange(2000, 2016), 0.05, 5e3),
        }[name]
        eta = linear_predictor(*true_curves(ages, years, amp), ages, years)
        E = np.full(eta.shape, exposure)
        D = np.random.default_rng(rng).poisson(E * death_rate(eta)).astype(float)
        return D, E, ages, years
    if name == "oldest-old":  # a predictor on both sides of eta = 0
        ages, years = np.arange(95, 106), np.arange(1990, 2020)
        rng = np.random.default_rng(5)
        gamma3 = 0.03 * rng.standard_normal(cohort_labels(ages, years).size)
        kappa1 = 0.2 - 0.01 * (years - years.mean())
        eta = linear_predictor(kappa1, np.full(years.size, 0.08), gamma3, ages, years)
        E = np.full(eta.shape, 2e3)
        return rng.poisson(E * death_rate(eta)).astype(float), E, ages, years
    if name == "damped":  # the grid of test_underflowing_trial_point_warns_nothing
        rng = np.random.default_rng(0)
        m, n = int(rng.integers(5, 8)), int(rng.integers(6, 23))
        ages, years = np.arange(60, 60 + m), np.arange(2000, 2000 + n)
        E = rng.uniform(5, 200, (n, m))
        eta = (-3 + 0.1 * (ages - ages.mean())[None, :]
               - 0.02 * (years - years.mean())[:, None])
        return rng.poisson(E * death_rate(eta)).astype(float), E, ages, years
    ages, years, D, E = _rate_only_backtest_counts()
    k = int(name.removeprefix("backtest-")) - int(years[0]) + 1
    return D[:k], E[:k], ages, years[:k]


class TestSweepsAgainstReference:
    """``fit_cbd`` takes the same sweeps as the plainly written reference
    (``np.logaddexp``, ``inverse_logit``, ``lstsq`` constraints, per-row
    sums): only rounding may differ."""

    @pytest.mark.parametrize("name", [
        "a6", "corners", "single-age", "damped", "oldest-old",
        *(f"backtest-{end}" for end in (1987, 1993, 1999, 2005, 2011)),
    ])
    def test_same_sweeps_as_the_reference(self, name):
        D, E, ages, years = _sweep_case(name)
        f = fit_cbd(D, E, ages, years)
        ref = cbd_sweeps_reference(D, E, ages, years)
        assert f.n_sweeps == ref["n_sweeps"] and f.n_sweeps > 1
        assert f.converged == ref["converged"]
        assert f.loglik_trace.size == ref["loglik_trace"].size
        for curve in ("kappa1", "kappa2", "gamma3"):
            np.testing.assert_allclose(getattr(f, curve), ref[curve], rtol=0, atol=1e-12)
        assert f.loglik == pytest.approx(ref["loglik"], rel=1e-11, abs=0.0)
        if name == "single-age":  # the kappa1-only step of a year seen at one age
            weighted = f.included[cohort_cols(ages, years, f.cohorts)]
            assert np.any(weighted.sum(axis=1) == 1)
        if name == "damped":
            assert ref["halvings"] > 0
        if name == "oldest-old":  # the kernel's eta >= 0 branch runs inside the fit
            eta = linear_predictor(f.kappa1, f.kappa2, f.gamma3, ages, years, f.cohorts)
            assert eta.min() < 0 < eta.max()


class TestEstimateRw:
    def test_deterministic_series(self):
        ages = np.arange(60, 64)
        years = np.arange(2000, 2003)
        f = make_fit(ages, years, kappa1=[0.0, 1.0, 2.0], kappa2=[0.0, 0.0, 0.0])
        rw = estimate_rw(f)
        np.testing.assert_allclose(rw.d, [1.0, 0.0], atol=0)
        np.testing.assert_allclose(rw.V, np.zeros((2, 2)), atol=0)

    def test_matches_direct_oracle(self, rng):
        ages = np.arange(60, 64)
        years = np.arange(2000, 2010)
        k1 = rng.normal(size=10).cumsum()
        k2 = rng.normal(scale=0.1, size=10).cumsum()
        g3 = rng.normal(scale=0.05, size=cohort_labels(ages, years).size)
        f = make_fit(ages, years, k1, k2, g3)
        rw = estimate_rw(f)
        dk1, dk2 = np.diff(k1), np.diff(k2)
        np.testing.assert_allclose(rw.d, [dk1.mean(), dk2.mean()], atol=1e-12)
        expected_V = np.empty((2, 2))
        for a, sa in enumerate((dk1, dk2)):
            for b, sb in enumerate((dk1, dk2)):
                expected_V[a, b] = np.mean((sa - sa.mean()) * (sb - sb.mean()))
        np.testing.assert_allclose(rw.V, expected_V, atol=1e-12)
        g_inc = g3[f.included]
        np.testing.assert_allclose(rw.mu, np.diff(g_inc).mean(), atol=1e-12)

    def test_needs_three_years(self):
        f = make_fit(np.arange(60, 64), np.arange(2000, 2002), [0.0, 0.1], [0.0, 0.0])
        with pytest.raises(ValueError):
            estimate_rw(f)

    def test_drift_recovery_coverage(self):
        # simulated random walks: d-hat lands within 3 sd in >= 95% of runs
        rng = np.random.default_rng(7)
        d_true = np.array([-0.03, 0.002])
        V_true = np.array([[0.04, 0.01], [0.01, 0.02]])
        L = np.linalg.cholesky(V_true)
        n = 40
        ages = np.arange(60, 64)
        years = np.arange(2000, 2000 + n)
        hits = 0
        reps = 200
        for _ in range(reps):
            steps = d_true + (L @ rng.standard_normal((2, n - 1))).T
            path = np.vstack([[0.0, 0.0], steps]).cumsum(axis=0)
            f = make_fit(ages, years, path[:, 0], path[:, 1])
            rw = estimate_rw(f)
            band = 3.0 * np.sqrt(np.diag(rw.V) / (n - 1))
            if np.all(np.abs(rw.d - d_true) <= band):
                hits += 1
        assert hits / reps >= 0.95


class TestForecastCbd:
    def test_zero_drift_repeats_last_curve(self):
        ages = np.arange(60, 66)
        years = np.arange(2000, 2010)
        f = make_fit(ages, years, np.full(10, -2.0), np.full(10, 0.1))
        rw = estimate_rw(f)  # deterministic flat series: d = 0, mu = 0
        np.testing.assert_allclose(rw.d, 0.0, atol=0)
        assert rw.mu == 0.0
        fc = forecast_cbd(f, rw, horizon=1)
        np.testing.assert_allclose(fc.mean[-1], fitted_logit(f)[-1], atol=1e-12)

    def test_kappa_variance_scales_linearly_in_horizon(self):
        ages = np.arange(60, 70)
        years = np.arange(2000, 2020)
        rng = np.random.default_rng(3)
        k1 = -2.0 + np.cumsum(rng.normal(-0.02, 0.05, size=20))
        k2 = 0.1 + np.cumsum(rng.normal(0.0, 0.01, size=20))
        f = make_fit(ages, years, k1, k2)
        rw = estimate_rw(f)
        fc1 = forecast_cbd(f, rw, horizon=1)
        fc4 = forecast_cbd(f, rw, horizon=4)
        # oldest age: the year t_n + 4 cohort is still a fitted one, so the
        # cell variance is purely the kappa part and must scale as h * V
        j = ages.size - 1
        v1 = fc1.variance[-1, j]
        v4 = fc4.variance[-1, j]
        assert v4 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_matches_handrolled_recursion(self, rng):
        ages = np.arange(60, 63)
        years = np.arange(2000, 2005)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3, exposure=1e6)
        f = fit_cbd(D, E, ages, years)
        rw = estimate_rw(f)
        h = 2
        fc = forecast_cbd(f, rw, h)
        x_bar = ages.mean()
        last_inc = f.cohorts[f.included][-1]
        g_last = f.gamma3[f.included][-1]
        for k in range(1, h + 1):
            t = years[-1] + k
            for j, x in enumerate(ages):
                c = t - x
                if c <= last_inc:
                    g = f.gamma3[c - f.cohorts[0]]
                    steps = 0
                else:
                    steps = c - last_inc
                    g = g_last + steps * rw.mu
                mean = (
                    f.kappa1[-1] + k * rw.d[0]
                    + (f.kappa2[-1] + k * rw.d[1]) * (x - x_bar)
                    + g
                )
                load = np.array([1.0, x - x_bar])
                var = load @ (k * rw.V) @ load + steps * rw.var_dgamma
                i = k - 1
                assert fc.mean[i, j] == pytest.approx(mean, abs=1e-12)
                assert fc.variance[i, j] == pytest.approx(var, abs=1e-12)

    def test_grids_cover_the_forecast_years_only(self):
        ages = np.arange(60, 64)
        years = np.arange(2000, 2008)
        k1, k2, g3 = true_curves(ages, years)
        D, E = exact_counts(ages, years, k1, k2, g3, exposure=1e6)
        f = fit_cbd(D, E, ages, years)
        fc = forecast_cbd(f, estimate_rw(f), horizon=3)
        np.testing.assert_array_equal(fc.years, [2008, 2009, 2010])
        assert fc.mean.shape == fc.variance.shape == (3, ages.size)

    def test_horizon_validated(self):
        f = make_fit(np.arange(60, 64), np.arange(2000, 2005),
                     np.zeros(5), np.zeros(5))
        rw = estimate_rw(f)
        with pytest.raises(ValueError):
            forecast_cbd(f, rw, 0)


class TestSynthesizeCounts:
    def test_counts_imply_original_rates(self, rng):
        q = rng.uniform(0.01, 0.3, size=(4, 3))
        D, E = synthesize_counts(q)
        np.testing.assert_allclose(-np.expm1(-D / E), q, rtol=1e-12)
        assert np.all(E == 1e5)

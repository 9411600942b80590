"""Relations between whole runs: input changes whose effect on the output is
known in closed form, applied to each model's fit and forecast, to the
backtest and to the CLI's CSV reader. Each run goes through the stock
optimizer, so a relation also checks that the stop lands on the same
iteration."""

import json
import math

import numpy as np
import pytest

from mortcast import mixed
from mortcast.backtest import BacktestPlan, emit_report, run_backtest
from mortcast.cbd import estimate_rw, fit_cbd, forecast_cbd
from mortcast.cli import EXIT_OK, main
from mortcast.data import MortalitySurface, initial_to_central, inverse_logit, synthesize_counts
from mortcast.design import KernelParams, build_design

#: both models, one restart (no random starts), one worker; h = 2 and h = 3
#: share the fit that trains to 2005
PLAN = dict(ages=(60, 69), horizons=(2, 3), windows=2, models=("cbd", "mixed"),
            restarts=1, workers=1)


@pytest.fixture(scope="module")
def surface():
    """A falling CBD-form surface (no cohort effect) with noise, on which
    every fit below converges."""
    ages, years = np.arange(60, 70), np.arange(1985, 2009)
    eta = (-2.2 - 0.025 * (years - years[0]))[:, None] + 0.11 * (ages - ages.mean())
    noise = 0.02 * np.random.default_rng(1).standard_normal(eta.shape)
    return MortalitySurface(ages=ages, years=years, q=inverse_logit(eta + noise))


@pytest.fixture(scope="module")
def report(surface):
    return run_backtest(BacktestPlan(**PLAN), surface)


@pytest.mark.parametrize("kept", [2, 3])
def test_dropping_a_horizon_leaves_the_others_rows(surface, report, kept):
    # fits are per training end, so h = 2 and h = 3 share some; dropping one
    # horizon changes how far a shared fit forecasts, and no kept row
    full = emit_report(report, "csv").splitlines()
    alone = run_backtest(BacktestPlan(**{**PLAN, "horizons": (kept,)}), surface)
    kept_rows = [row for row in full[1:] if row.split(",")[3] == str(kept)]
    assert emit_report(alone, "csv").splitlines() == full[:1] + kept_rows


def test_shifting_year_labels_shifts_only_the_years(surface, report):
    later = MortalitySurface(ages=surface.ages, years=surface.years + 100, q=surface.q)
    shifted = run_backtest(BacktestPlan(**PLAN), later)
    assert len(shifted.results) == len(report.results) == 2 * (2 + 2)
    for a, b in zip(report.results, shifted.results):
        assert (b.model, b.horizon, b.window) == (a.model, a.horizon, a.window)
        assert (b.train_end, b.target_year) == (a.train_end + 100, a.target_year + 100)
        assert a.converged and b.converged and b.n_iter == a.n_iter
        if a.model == "mixed":  # the design reads only differences of labels
            assert b.rmse == a.rmse
        else:  # the CBD constraint regresses gamma on the cohort labels themselves
            assert b.rmse == pytest.approx(a.rmse, rel=1e-12, abs=0.0)
    for key, rmse in report.pooled.items():
        assert shifted.pooled[key] == pytest.approx(rmse, rel=1e-12, abs=0.0)


MIXED_AGES, MIXED_YEARS = range(60, 68), range(1985, 2005)


@pytest.fixture(scope="module")
def mixed_y():
    """Stacked logit rates drawn from the mixed model on 8 ages x 20 years."""
    design = build_design(MIXED_AGES, MIXED_YEARS)
    params = KernelParams(h1=0.4, l1=16.0, h2=0.05, l2=16.0, c=0.25, s=30.0, sigma2=0.04)
    return mixed.simulate(design, params, [-3.0, -0.03], np.random.default_rng(0))


def _mixed_run(y, ages=MIXED_AGES, years=MIXED_YEARS):
    """One restart (no random starts) and a 3-year forecast."""
    f = mixed.fit(y, build_design(ages, years), restarts=1)
    assert f.converged
    return f, mixed.forecast(f, 3)


@pytest.fixture(scope="module")
def mixed_base(mixed_y):
    return _mixed_run(mixed_y)


@pytest.mark.parametrize("case", ["constant", "trend"])
def test_shifting_y_moves_only_beta_and_the_means(mixed_y, mixed_base, case):
    # y + 0.7 lifts beta0 by 0.7 and y + 0.01 tau lifts beta1 by 0.01: the
    # residuals, and so the likelihood and every covariance, stay the same.
    # Measured within 1e-12; the tolerances leave a thousandfold margin.
    f0, fc0 = mixed_base
    tau_ahead = (fc0.years - f0.design.t_bar)[:, None]
    shift, d_beta, d_mean = {
        "constant": (0.7, [0.7, 0.0], 0.7),
        "trend": (0.01 * f0.design.tau, [0.0, 0.01], 0.01 * tau_ahead),
    }[case]
    f, fc = _mixed_run(mixed_y + shift)
    assert f.n_iter == f0.n_iter
    assert f.loglik == pytest.approx(f0.loglik, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(f.params.as_array(), f0.params.as_array(), rtol=1e-9)
    np.testing.assert_allclose(f.fixed.beta, f0.fixed.beta + d_beta, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fc.mean, fc0.mean + d_mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fc.variance, fc0.variance, rtol=1e-9)


def test_doubling_y_doubles_the_amplitudes(mixed_y, mixed_base):
    # 2y has LL - N log 2 at amplitudes x 2 and sigma2 x 4, lengths unchanged.
    # The stop rule is relative to |LL|, so a scale of y may end the ascent an
    # iteration apart; on this grid doubling does not (the last large step
    # gains 3.5 times the stop threshold).
    f0, fc0 = mixed_base
    f, fc = _mixed_run(2.0 * mixed_y)
    assert f.n_iter == f0.n_iter
    expected_ll = f0.loglik - mixed_y.size * math.log(2.0)
    assert f.loglik == pytest.approx(expected_ll, rel=1e-12, abs=0.0)
    scale = np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 4.0])
    np.testing.assert_allclose(f.params.as_array(), scale * f0.params.as_array(), rtol=1e-9)
    np.testing.assert_allclose(f.fixed.beta, 2.0 * f0.fixed.beta, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fc.mean, 2.0 * fc0.mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fc.variance, 4.0 * fc0.variance, rtol=1e-9)


@pytest.mark.parametrize("d_age, d_year", [(0, 100), (5, 0)], ids=["years+100", "ages+5"])
def test_shifting_labels_leaves_the_mixed_fit(mixed_y, mixed_base, d_age, d_year):
    # the design reads only differences of labels, so the runs are bit-identical
    f0, fc0 = mixed_base
    f, fc = _mixed_run(mixed_y, [a + d_age for a in MIXED_AGES],
                       [t + d_year for t in MIXED_YEARS])
    assert f.n_iter == f0.n_iter
    np.testing.assert_array_equal(f.loglik_trace, f0.loglik_trace)
    np.testing.assert_array_equal(f.params.as_array(), f0.params.as_array())
    np.testing.assert_array_equal(f.fixed.beta, f0.fixed.beta)
    assert fc.years.tolist() == (fc0.years + d_year).tolist()
    np.testing.assert_array_equal(fc.mean, fc0.mean)
    np.testing.assert_array_equal(fc.variance, fc0.variance)


@pytest.mark.parametrize("d_age, d_year", [(0, 100), (5, 0)], ids=["years+100", "ages+5"])
def test_shifting_labels_leaves_the_cbd_fit(surface, d_age, d_year):
    # rel 1e-12, not equality: the constraint regresses gamma on the cohort
    # labels themselves (measured within 6e-14)
    D, E = synthesize_counts(surface.q)
    runs = []
    for ages, years in ((surface.ages, surface.years),
                        (surface.ages + d_age, surface.years + d_year)):
        f = fit_cbd(D, E, ages, years)
        runs.append((f, forecast_cbd(f, estimate_rw(f), 3)))
    (f0, fc0), (f, fc) = runs
    assert f0.converged and f.converged and f.n_sweeps == f0.n_sweeps
    assert f.loglik == pytest.approx(f0.loglik, rel=1e-12, abs=0.0)
    assert f.cohorts.tolist() == (f0.cohorts + d_year - d_age).tolist()
    for name in ("kappa1", "kappa2"):
        np.testing.assert_allclose(getattr(f, name), getattr(f0, name), rtol=1e-12)
    np.testing.assert_allclose(f.gamma3, f0.gamma3, rtol=0,
                               atol=1e-12 * np.max(np.abs(f0.gamma3)))
    assert fc.years.tolist() == (fc0.years + d_year).tolist()
    np.testing.assert_allclose(fc.mean, fc0.mean, rtol=1e-12)
    np.testing.assert_allclose(fc.variance, fc0.variance, rtol=1e-12)


def _table(surface, columns, order):
    """CSV text of ``surface`` with its death counts at exposure 1e4, the
    columns in ``columns`` order and the cells in ``order``."""
    m = initial_to_central(surface.q)
    cells = [dict(year=t, age=x, mx=repr(float(m[i, j])),
                  deaths=repr(float(1e4 * m[i, j])), exposure="10000.0")
             for i, t in enumerate(surface.years) for j, x in enumerate(surface.ages)]
    rows = [",".join(str(cells[k][c]) for c in columns) for k in order]
    return "\n".join([",".join(columns), *rows]) + "\n"


@pytest.mark.parametrize("model", ["mixed", "cbd"])
def test_row_and_column_order_leave_the_fit(surface, tmp_path, model):
    n = surface.q.size
    columns = ["year", "age", "mx", "deaths", "exposure"]
    tables = {
        "plain": _table(surface, columns, range(n)),
        "shuffled": _table(surface, columns, np.random.default_rng(8).permutation(n)),
        "reordered": _table(surface, ["exposure", "mx", "age", "deaths", "year"], range(n)),
    }
    fits = []
    for name, text in tables.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        out = tmp_path / name
        assert main(["fit", "--model", model, "--input", str(path), "--ages", "60:69",
                     "--years", "1985:2002", "--restarts", "1", "--out", str(out)]) == EXIT_OK
        fits.append((out / "fit.json").read_bytes())
    assert fits[1] == fits[0] and fits[2] == fits[0]


def test_row_and_column_order_leave_the_backtest_reports(surface, tmp_path, monkeypatch):
    monkeypatch.setenv("MORTCAST_THREADS", "1")
    n = surface.q.size
    columns = ["year", "age", "mx", "deaths", "exposure"]
    tables = {
        "plain": _table(surface, columns, range(n)),
        "shuffled": _table(surface, columns, np.random.default_rng(9).permutation(n)),
        "reordered": _table(surface, ["deaths", "year", "exposure", "age", "mx"], range(n)),
    }
    reports = []
    for name, text in tables.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        out = tmp_path / name
        assert main(["backtest", "--input", str(path), "--ages", "60:69", "--years",
                     "1985:2008", "--horizons", "2,3", "--windows", "2", "--restarts", "1",
                     "--out", str(out)]) == EXIT_OK
        reports.append([(out / f"report.{ext}").read_bytes() for ext in ("csv", "json", "md")])
    assert reports[1] == reports[0] and reports[2] == reports[0]
    report = json.loads(reports[0][1])
    assert not report["failures"] and {r["model"] for r in report["results"]} == {"mixed", "cbd"}

"""Relations between whole runs: input changes whose effect on the output is
known in closed form, applied to the backtest and to the CLI's CSV reader."""

import numpy as np
import pytest

from mortcast.backtest import BacktestPlan, emit_report, run_backtest
from mortcast.cli import EXIT_OK, main
from mortcast.data import MortalitySurface, initial_to_central, inverse_logit

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

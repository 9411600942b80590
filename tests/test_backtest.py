import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import mortcast.backtest as bt
from mortcast.backtest import (
    BacktestPlan,
    emit_report,
    feasibility_start,
    rmse_curve,
    run_backtest,
)
from mortcast.data import MortalitySurface, inverse_logit, synthesize_counts
from mortcast.errors import FactorizationError


def cbd_exact_surface(ages, years, slope=-0.025):
    """Surface sitting exactly on a CBD model with linear kappa1, constant
    kappa2 and zero cohort effects: logit(q) = eta and D/E = m hold exactly,
    so the CBD fit-forecast loop reproduces the truth."""
    ages = np.arange(ages[0], ages[1] + 1)
    years = np.arange(years[0], years[1] + 1)
    k1 = -2.2 + slope * (years - years[0])
    k2 = np.full(years.size, 0.11)
    eta = k1[:, None] + k2[:, None] * (ages - ages.mean())[None, :]
    q = inverse_logit(eta)
    return MortalitySurface(ages=ages, years=years, q=q)


class TestRmseCurve:
    def test_exact_match(self):
        v = np.linspace(-3, -1, 30)
        assert rmse_curve(v, v) == 0.0

    def test_constant_offset(self):
        v = np.linspace(-3, -1, 30)
        assert rmse_curve(v + 0.1, v) == pytest.approx(0.1, rel=1e-12)

    def test_matches_direct_summation(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        total = sum((x - y) ** 2 for x, y in zip(a, b))
        assert rmse_curve(a, b) == pytest.approx(
            (total / 30.0) ** 0.5, abs=1e-12
        )

    def test_axis_mismatch(self):
        with pytest.raises(ValueError):
            rmse_curve(np.zeros(3), np.zeros(4))


class TestProtocolArithmetic:
    def test_window_layout_for_documented_plan(self):
        years = np.arange(1947, 2017)
        # h = 20, ten windows: first training window ends 1987, last 1996,
        # targets sweep 2007..2016
        assert feasibility_start(years, 20, 10) == 1987
        assert feasibility_start(years, 5, 10) == 2002

    def test_infeasible_plan_reports_inequality(self):
        years = np.arange(2000, 2012)
        with pytest.raises(ValueError, match="infeasible"):
            feasibility_start(years, 8, 10)

    def test_run_records_expected_windows(self):
        surface = cbd_exact_surface((60, 62), (1947, 2016))
        plan = BacktestPlan(ages=(60, 62), horizons=(20,), windows=10,
                            models=("cbd",), workers=1)
        report = run_backtest(plan, surface)
        ends = [r.train_end for r in report.results]
        targets = [r.target_year for r in report.results]
        assert ends == list(range(1987, 1997))
        assert targets == list(range(2007, 2017))


class TestPerfectModel:
    def test_exact_cbd_data_gives_zero_rmse(self):
        surface = cbd_exact_surface((60, 64), (1980, 2010))
        plan = BacktestPlan(ages=(60, 64), horizons=(3,), windows=2,
                            models=("cbd",), workers=1)
        report = run_backtest(plan, surface)
        assert not report.failures
        for r in report.results:
            assert r.rmse <= 1e-4
        assert report.pooled[("cbd", 3)] <= 1e-4


@pytest.fixture(scope="module")
def small_report():
    rng = np.random.default_rng(5)
    surface = cbd_exact_surface((60, 63), (1985, 2010))
    # perturb so errors are non-trivial
    y = surface.y + 0.03 * rng.standard_normal(surface.y.shape)
    q = inverse_logit(y)
    surface = MortalitySurface(ages=surface.ages, years=surface.years, q=q)
    plan = BacktestPlan(ages=(60, 63), horizons=(2, 4), windows=3,
                        models=("cbd", "mixed"), restarts=1, workers=1)
    return run_backtest(plan, surface), surface, plan


class TestPooling:

    def test_pooled_is_root_of_pooled_squares(self, small_report):
        report, _, plan = small_report
        m = report.ages.size
        for model in plan.models:
            for h in plan.horizons:
                rows = [r for r in report.results
                        if r.model == model and r.horizon == h and not r.failed]
                total = sum(float(np.sum(r.errors**2)) for r in rows)
                pooled = report.pooled[(model, h)]
                assert pooled**2 * (len(rows) * m) == pytest.approx(
                    total, rel=1e-12
                )

    def test_per_window_rmse_consistent_with_errors(self, small_report):
        report, _, _ = small_report
        for r in report.results:
            if not r.failed:
                assert r.rmse == pytest.approx(
                    float(np.sqrt(np.mean(r.errors**2))), rel=1e-12
                )

    def test_removing_a_model_leaves_others_unchanged(self, small_report):
        report, surface, plan = small_report
        solo = run_backtest(
            BacktestPlan(ages=(60, 63), horizons=plan.horizons,
                         windows=plan.windows, models=("cbd",),
                         restarts=plan.restarts, workers=1),
            surface,
        )
        for key, val in solo.pooled.items():
            assert report.pooled[key] == val
        solo_rows = {(r.horizon, r.window): r.rmse for r in solo.results}
        both_rows = {(r.horizon, r.window): r.rmse
                     for r in report.results if r.model == "cbd"}
        assert solo_rows == both_rows


class TestDeterminismAndParallel:
    def test_serial_rerun_is_bit_identical(self):
        surface = cbd_exact_surface((60, 63), (1985, 2008))
        plan = BacktestPlan(ages=(60, 63), horizons=(2,), windows=2,
                            models=("cbd", "mixed"), restarts=1, seed=42,
                            workers=1)
        r1 = run_backtest(plan, surface)
        r2 = run_backtest(plan, surface)
        assert emit_report(r1, "csv") == emit_report(r2, "csv")

    def test_parallel_matches_serial(self):
        surface = cbd_exact_surface((60, 63), (1985, 2008))
        base = dict(ages=(60, 63), horizons=(2,), windows=2,
                    models=("cbd", "mixed"), restarts=1, seed=42)
        serial = run_backtest(BacktestPlan(workers=1, **base), surface)
        parallel = run_backtest(BacktestPlan(workers=2, **base), surface)
        assert emit_report(serial, "csv") == emit_report(parallel, "csv")

    def test_default_cap_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        # pinned to one CPU of a larger machine, one worker
        monkeypatch.setattr(bt.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(bt.os, "cpu_count", lambda: 8)
        plan = BacktestPlan(horizons=(2,), windows=2, models=("cbd",))
        assert bt._resolve_workers(plan, 8) == 1

    def test_plan_workers_are_the_worker_count(self, monkeypatch):
        # an explicit count is not capped by the CPUs, only by the tasks
        monkeypatch.setattr(bt.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        plan = BacktestPlan(horizons=(2,), windows=2, models=("cbd",), workers=3)
        assert bt._resolve_workers(plan, 8) == 3
        assert bt._resolve_workers(plan, 2) == 2

    def test_library_reads_no_thread_env(self, monkeypatch):
        # MORTCAST_THREADS is the CLI's; a library call is set by its arguments
        surface = cbd_exact_surface((60, 62), (1990, 2010))
        plan = BacktestPlan(ages=(60, 62), horizons=(2,), windows=2,
                            models=("cbd",), workers=1)
        monkeypatch.delenv("MORTCAST_THREADS", raising=False)
        unset = run_backtest(plan, surface)
        monkeypatch.setenv("MORTCAST_THREADS", "abc")
        report = run_backtest(plan, surface)
        assert emit_report(report, "json") == emit_report(unset, "json")


class TestOneFitPerTrainingWindow:
    """Horizons 2 and 3 with three windows on 1985-2008 train to 2004-2006
    and 2003-2005: six tasks per model share four training end-years."""

    PLAN = dict(ages=(60, 63), horizons=(2, 3), windows=3,
                models=("cbd", "mixed"), restarts=1, workers=1)

    @staticmethod
    def surface():
        rng = np.random.default_rng(11)
        base = cbd_exact_surface((60, 63), (1985, 2008))
        q = inverse_logit(base.y + 0.02 * rng.standard_normal(base.y.shape))
        return MortalitySurface(ages=base.ages, years=base.years, q=q)

    @staticmethod
    def single_task(surface, plan, model, horizon, train_end, fit_cbd, fit_mixed):
        """fit -> forecast(horizon) -> rmse_curve for one task alone."""
        k = train_end - int(surface.years[0]) + 1
        if model == "cbd":
            D, E = synthesize_counts(surface.q[:k])
            fit = fit_cbd(D, E, surface.ages, surface.years[:k])
            fc = bt.cbd_mod.forecast_cbd(fit, bt.cbd_mod.estimate_rw(fit), horizon)
        else:
            design = bt.build_design(surface.ages, surface.years[:k])
            fit = fit_mixed(surface.y[:k], design, restarts=plan.restarts)
            fc = bt.mixed_mod.forecast(fit, horizon)
        target = train_end + horizon
        pred, _ = fc.year_slice(target)
        actual = surface.y[target - int(surface.years[0])]
        return rmse_curve(pred, actual), pred - actual

    def test_one_fit_per_model_and_training_end(self, monkeypatch):
        surface = self.surface()
        plan = BacktestPlan(**self.PLAN)
        real_cbd, real_mixed = bt.cbd_mod.fit_cbd, bt.mixed_mod.fit
        calls = []

        def counted_cbd(D, E, ages, years, **kw):
            calls.append(("cbd", int(years[-1])))
            return real_cbd(D, E, ages, years, **kw)

        def counted_mixed(y, design, **kw):
            calls.append(("mixed", int(design.train_years[-1])))
            return real_mixed(y, design, **kw)

        monkeypatch.setattr(bt.cbd_mod, "fit_cbd", counted_cbd)
        monkeypatch.setattr(bt.mixed_mod, "fit", counted_mixed)
        report = run_backtest(plan, surface)
        monkeypatch.undo()

        distinct = {(r.model, r.train_end) for r in report.results}
        assert len(report.results) == 2 * 2 * 3 and len(distinct) == 2 * 4
        assert sorted(calls) == sorted(distinct)
        assert not report.failures
        for r in report.results:
            rmse, errors = self.single_task(surface, plan, r.model, r.horizon,
                                            r.train_end, real_cbd, real_mixed)
            assert r.target_year == r.train_end + r.horizon
            if r.model == "cbd":
                assert r.rmse == rmse and np.array_equal(r.errors, errors)
            else:
                assert r.rmse == pytest.approx(rmse, rel=1e-12, abs=0.0)
                np.testing.assert_allclose(r.errors, errors, rtol=1e-12, atol=0.0)

    def test_shared_fit_failure_fails_every_task_it_serves(self, monkeypatch):
        surface = self.surface()
        real_fit = bt.mixed_mod.fit

        def flaky_fit(y, design, **kw):
            if design.train_years[-1] == 2005:
                raise RuntimeError("synthetic failure for testing")
            return real_fit(y, design, **kw)

        monkeypatch.setattr(bt.mixed_mod, "fit", flaky_fit)
        plan = BacktestPlan(**{**self.PLAN, "models": ("mixed",)})
        report = run_backtest(plan, surface)
        failed = [r for r in report.results if r.failed]
        # 2005 closes window 1 of h = 2 and window 2 of h = 3
        assert [(r.horizon, r.window, r.train_end) for r in failed] == [
            (2, 1, 2005), (3, 2, 2005)]
        assert all(not r.converged and r.n_iter == 0 and r.errors is None
                   for r in failed)
        assert report.failures == [
            "mixed h=2 window=1 (train to 2005): RuntimeError: synthetic failure for testing",
            "mixed h=3 window=2 (train to 2005): RuntimeError: synthetic failure for testing",
        ]
        for h in plan.horizons:
            ok = [r for r in report.results if r.horizon == h and not r.failed]
            assert len(ok) == 2
            total = sum(float(np.sum(r.errors**2)) for r in ok)
            pooled = report.pooled[("mixed", h)]
            assert pooled**2 * (len(ok) * surface.ages.size) == pytest.approx(
                total, rel=1e-12)


class TestFailureHandling:
    def test_failed_window_excluded_and_flagged(self, monkeypatch):
        surface = cbd_exact_surface((60, 63), (1985, 2008))

        real_fit = bt.mixed_mod.fit

        def flaky_fit(y, design, **kw):
            if design.train_years[-1] == 2005:
                raise RuntimeError("synthetic failure for testing")
            return real_fit(y, design, **kw)

        monkeypatch.setattr(bt.mixed_mod, "fit", flaky_fit)
        plan = BacktestPlan(ages=(60, 63), horizons=(2,), windows=3,
                            models=("mixed",), restarts=1, workers=1)
        report = run_backtest(plan, surface)
        failed = [r for r in report.results if r.failed]
        assert len(failed) == 1 and failed[0].train_end == 2005
        assert len(report.failures) == 1
        rows = json.loads(emit_report(report, "json"))["results"]
        assert [(r["rmse"], r["converged"], r["n_iter"]) for r in rows if r["failed"]] == [
            (None, None, None)]
        ok = [r for r in report.results if not r.failed]
        pooled = report.pooled[("mixed", 2)]
        total = sum(float(np.sum(r.errors**2)) for r in ok)
        assert pooled**2 * (len(ok) * surface.ages.size) == pytest.approx(total)

    PLAN = dict(ages=(60, 63), horizons=(2,), windows=3, models=("mixed",),
                restarts=1, workers=1)

    def test_programming_error_propagates(self, monkeypatch):
        surface = cbd_exact_surface((60, 63), (1985, 2008))

        def broken_fit(y, design, **kw):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(bt.mixed_mod, "fit", broken_fit)
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_backtest(BacktestPlan(**self.PLAN), surface)

    def test_factorization_error_is_an_excluded_window(self, monkeypatch):
        surface = cbd_exact_surface((60, 63), (1985, 2008))
        real_fit = bt.mixed_mod.fit

        def singular_fit(y, design, **kw):
            if design.train_years[-1] == 2005:
                raise FactorizationError("synthetic singular covariance")
            return real_fit(y, design, **kw)

        monkeypatch.setattr(bt.mixed_mod, "fit", singular_fit)
        report = run_backtest(BacktestPlan(**self.PLAN), surface)
        failed = [r for r in report.results if r.failed]
        assert [r.train_end for r in failed] == [2005]
        assert failed[0].message.startswith("FactorizationError")
        assert len(report.failures) == 1
        assert np.isfinite(report.pooled[("mixed", 2)])

    def test_every_window_failing_is_strict_json(self, monkeypatch):
        surface = cbd_exact_surface((60, 63), (1985, 2008))

        def singular_fit(y, design, **kw):
            raise FactorizationError("synthetic singular covariance")

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        monkeypatch.setattr(bt.mixed_mod, "fit", singular_fit)
        report = run_backtest(BacktestPlan(**{**self.PLAN, "windows": 2}), surface)
        doc = json.loads(emit_report(report, "json"), parse_constant=no_constant)
        assert doc["pooled"] == [{"model": "mixed", "horizon": 2, "rmse": None}]
        md = emit_report(report, "markdown-table")
        assert "| 2 | failed |" in md
        excluded = md.split("Excluded windows:\n")[1].splitlines()
        assert [line.split(" (")[0] for line in excluded[:2]] == [
            "- mixed h=2 window=0", "- mixed h=2 window=1"]


class TestNonConvergedWindows:
    def test_flagged_in_reports_and_kept_in_pool(self, monkeypatch):
        # seven ages and mild noise: every CBD window converges unforced
        surface = cbd_exact_surface((60, 66), (1985, 2010))
        y = surface.y + 0.01 * np.random.default_rng(5).standard_normal(surface.y.shape)
        q = inverse_logit(y)
        surface = MortalitySurface(ages=surface.ages, years=surface.years, q=q)
        plan = BacktestPlan(ages=(60, 66), horizons=(2, 4), windows=3,
                            models=("cbd",), workers=1)
        real_fit = bt.cbd_mod.fit_cbd

        def stopped_fit(D, E, ages, years):
            with pytest.MonkeyPatch.context() as mp:
                if years[-1] == 2005:
                    mp.setattr(bt.cbd_mod, "MAX_SWEEPS", 1)
                return real_fit(D, E, ages, years)

        monkeypatch.setattr(bt.cbd_mod, "fit_cbd", stopped_fit)
        report = run_backtest(plan, surface)
        stopped = [r for r in report.results if not r.converged]
        assert [(r.horizon, r.train_end, r.n_iter) for r in stopped] == [(4, 2005, 1)]
        assert not report.failures and not any(r.failed for r in report.results)
        assert all(r.n_iter > 1 for r in report.results if r.converged)

        rows = json.loads(emit_report(report, "json"))["results"]
        assert [(r["horizon"], r["window"], r["n_iter"]) for r in rows
                if not r["converged"]] == [(4, stopped[0].window, 1)]
        md = emit_report(report, "markdown-table")
        assert "Non-converged windows" in md
        assert (f"- cbd h=4 window={stopped[0].window} (train to 2005): "
                "stopped after 1 sweeps") in md
        # the stopped window still counts in its horizon's pooled RMSE
        rows4 = [r for r in report.results if r.horizon == 4]
        total = sum(float(np.sum(r.errors**2)) for r in rows4)
        pooled = report.pooled[("cbd", 4)]
        assert pooled**2 * (len(rows4) * surface.ages.size) == pytest.approx(total, rel=1e-12)


@pytest.fixture(scope="module")
def report():
    surface = cbd_exact_surface((60, 63), (1985, 2008))
    plan = BacktestPlan(ages=(60, 63), horizons=(2, 3), windows=2,
                        models=("cbd", "mixed"), restarts=1, workers=1,
                        label="synthetic", sex="male")
    return run_backtest(plan, surface)


class TestEmitReport:

    def test_csv_schema_and_round_trip(self, report):
        text = emit_report(report, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["model", "country", "sex", "horizon", "window", "rmse"]
        data = rows[1:]
        # per (model, horizon): windows rows plus one pooled row
        assert len(data) == 2 * 2 * (2 + 1)
        for row in data:
            assert row[1] == "synthetic" and row[2] == "male"
            assert row[4] == "all" or row[4].isdigit()
            float(row[5])  # parses round-trip

    @pytest.mark.parametrize("label", ["Japan, male", 'Japan "JPN"\nmale'])
    def test_csv_quotes_the_label(self, report, label):
        plan = dataclasses.replace(report.plan, label=label)
        text = emit_report(dataclasses.replace(report, plan=plan), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 2 * 2 * (2 + 1)
        assert all(len(row) == 6 for row in rows)
        assert all(row[1] == label for row in rows[1:])

    def test_csv_pooled_rows_match_report(self, report):
        text = emit_report(report, "csv")
        for row in csv.reader(io.StringIO(text)):
            if row[4] == "all":
                assert float(row[5]) == report.pooled[(row[0], int(row[3]))]

    def test_json_validates_against_schema(self, report):
        import jsonschema

        schema = {
            "type": "object",
            "required": ["plan", "results", "pooled", "ages", "years"],
            "properties": {
                "plan": {
                    "type": "object",
                    "required": ["label", "sex", "horizons", "windows",
                                 "models", "seed"],
                },
                "ages": {"type": "array", "items": {"type": "integer"}},
                "years": {"type": "array", "items": {"type": "integer"}},
                "results": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["model", "horizon", "window",
                                     "train_end", "target_year", "rmse",
                                     "failed"],
                        "properties": {
                            "model": {"enum": ["mixed", "cbd"]},
                            "horizon": {"type": "integer"},
                            "window": {"type": "integer"},
                            "rmse": {"type": ["number", "null"]},
                            "failed": {"type": "boolean"},
                        },
                    },
                },
                "pooled": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["model", "horizon", "rmse"],
                    },
                },
                "failures": {"type": "array"},
            },
        }
        doc = json.loads(emit_report(report, "json"))
        jsonschema.validate(doc, schema)

    def test_json_rows_are_the_dataclass_fields(self, report):
        from dataclasses import fields

        doc = json.loads(emit_report(report, "json"))
        left_out = {"ages", "years", "workers", "errors"}
        assert set(doc["plan"]) == {f.name for f in fields(BacktestPlan)} - left_out
        names = {f.name for f in fields(bt.WindowResult)} - left_out
        assert all(set(row) == names for row in doc["results"])

    def test_markdown_flags_row_minima(self, report):
        text = emit_report(report, "markdown-table")
        lines = [l for l in text.splitlines() if l.startswith("| ")]
        # header + one row per horizon
        assert len(lines) == 1 + 2
        for line in lines[1:]:
            assert line.count("**") == 2  # exactly one bolded winner

    def test_markdown_deterministic(self, report):
        assert emit_report(report, "markdown-table") == emit_report(
            report, "markdown-table"
        )

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


class TestPlanValidation:
    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            BacktestPlan(models=("arima",))

    def test_repeated_horizon_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            BacktestPlan(horizons=(5, 10, 5))

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            BacktestPlan(windows=0)

    @pytest.mark.parametrize("bad, match", [
        (dict(restarts=0), "restarts must be >= 1"),
        (dict(seed=-1), "seed must be"),
        (dict(models=()), "non-empty subset"),
        (dict(workers=0), "workers must be"),
        (dict(horizons=()), "horizons must be positive"),
        (dict(horizons=(0,)), "horizons must be positive"),
        (dict(label="a\rb"), "label may not hold a carriage return"),
        (dict(models=("cbd", "cbd")), "models must be distinct"),
    ])
    def test_bad_policy_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            BacktestPlan(**bad)

    def test_misshaped_exposures_rejected_before_any_fit(self):
        # the surface checks its own count pair, so a bad one never reaches
        # run_backtest, let alone a fit
        base = cbd_exact_surface((60, 62), (1990, 2010))
        D, E = synthesize_counts(base.q)
        bad_cell = E.copy()
        bad_cell[4, 1] = 0.0
        with pytest.raises(ValueError, match=r"D/E grids must have shape \(21, 3\)"):
            MortalitySurface(base.ages, base.years, base.q, (D, np.ones((3, 3))))
        with pytest.raises(ValueError, match=r"bad count at \(year=1994, age=61\)"):
            MortalitySurface(base.ages, base.years, base.q, (D, bad_cell))

    def test_rate_only_counts_synthesized_once(self, monkeypatch):
        import mortcast.data as data_mod

        base = cbd_exact_surface((60, 62), (1990, 2010))
        real = data_mod.synthesize_counts
        calls = []

        def counted(q):
            calls.append(q.shape)
            return real(q)

        monkeypatch.setattr(data_mod, "synthesize_counts", counted)
        surface = MortalitySurface(base.ages, base.years, base.q)
        assert calls == [surface.q.shape]
        plan = BacktestPlan(ages=(60, 62), horizons=(2, 3), windows=2,
                            models=("cbd",), workers=1)
        report = run_backtest(plan, surface)
        assert calls == [surface.q.shape]  # the backtest synthesized none
        assert not report.failures and len(report.results) == 4

    def test_plan_window_must_match_surface(self):
        surface = cbd_exact_surface((60, 62), (1990, 2010))
        plan = BacktestPlan(horizons=(2,), windows=2, models=("cbd",))
        # default plan window is ages 60-89; this surface stops at 62
        with pytest.raises(ValueError, match="do not match"):
            run_backtest(plan, surface)

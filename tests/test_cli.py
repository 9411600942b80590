import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_surface, surface_to_mx_csv

import mortcast
from mortcast import artifacts
from mortcast.cli import EXIT_ERROR, EXIT_NONCONVERGENCE, EXIT_OK, RunConfig, main
from mortcast.data import initial_to_central, inverse_logit
from mortcast.design import build_design
from mortcast.mixed import MixedFit, fit, forecast


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    rng = np.random.default_rng(99)
    surface = make_surface((60, 63), (1990, 2012), rng)
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    path.write_text(surface_to_mx_csv(surface))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestFitCommand:
    def test_mixed_fit_writes_artifacts(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "fit", "--model", "mixed", "--input", data_csv, "--format", "csv",
            "--ages", "60:63", "--years", "1990:2009", "--restarts", "1",
            "--out", out,
        )
        assert code == EXIT_OK
        assert (out / "fit.json").exists()
        assert (out / "run_config.json").exists()
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model"] == "mixed"
        assert doc["converged"] is True
        stdout = capsys.readouterr().out
        assert "log-likelihood" in stdout

    def test_cbd_fit_writes_artifacts(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "fit", "--model", "cbd", "--input", data_csv, "--format", "csv",
            "--ages", "60:63", "--years", "1990:2009", "--out", out,
        )
        assert code == EXIT_OK
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model"] == "cbd"
        assert abs(doc["constraint_residuals"][0]) <= 1e-6

    def test_cbd_fit_rejects_a_bad_count_cell(self, tmp_path, capsys):
        # the fit used to fall back to counts synthesized from the rates
        lines = ["year,age,mx,deaths,exposure"]
        for t in range(1990, 2010):
            for x in range(60, 64):
                E = 0.0 if (t, x) == (1995, 62) else 1e4
                lines.append(f"{t},{x},0.02,{0.02 * E!r},{E!r}")
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "fit", "--model", "cbd", "--input", path, "--ages", "60:63",
            "--years", "1990:2009", "--out", tmp_path / "run",
        )
        assert code == EXIT_ERROR
        assert "year=1995, age=62" in capsys.readouterr().err
        assert not (tmp_path / "run" / "fit.json").exists()

    def test_cbd_fit_on_qx_with_counts(self, tmp_path):
        # D/E is a central rate; qx with counts was always rejected as
        # inconsistent because the check compared qx with D/E itself
        surface = make_surface((60, 63), (1990, 2009), np.random.default_rng(99))
        D = 1e4 * initial_to_central(surface.q)
        lines = ["year,age,qx,deaths,exposure"]
        for i, t in enumerate(surface.years):
            for j, x in enumerate(surface.ages):
                lines.append(f"{t},{x},{float(surface.q[i, j])!r},{float(D[i, j])!r},1e4")
        path = tmp_path / "qx_counts.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "fit", "--model", "cbd", "--input", path, "--ages", "60:63",
            "--years", "1990:2009", "--out", tmp_path / "run",
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("clamp", ["0", "-0.5", "nan"])
    def test_clamp_q_outside_the_unit_interval_exits_one(self, tmp_path, capsys,
                                                         clamp):
        path = tmp_path / "zero.csv"
        path.write_text("year,age,mx\n" + "".join(
            f"{t},{x},{0.0 if (t, x) == (2001, 61) else 0.02}\n"
            for t in range(2000, 2004) for x in (60, 61)))
        code = run_cli("fit", "--input", path, "--ages", "60:61", "--years",
                       "2000:2003", "--clamp-q", clamp, "--out", tmp_path / "run")
        assert code == EXIT_ERROR
        assert "clamp_q must lie in (0, 1)" in capsys.readouterr().err

    def test_missing_input_names_path(self, tmp_path, capsys):
        code = run_cli(
            "fit", "--input", tmp_path / "nope.csv", "--format", "csv",
            "--ages", "60:63", "--years", "1990:2009", "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        assert "nope.csv" in capsys.readouterr().err

    def test_reversed_year_range(self, data_csv, tmp_path, capsys):
        code = run_cli(
            "fit", "--input", data_csv, "--format", "csv",
            "--ages", "60:63", "--years", "2006:1947", "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        assert "reversed" in capsys.readouterr().err

    def test_nonconvergence_exit_code_still_writes(self, tmp_path):
        # exactly affine data sends sigma2 to its boundary; the likelihood
        # diverges so the run cannot satisfy the convergence rule
        ages = np.arange(60, 63)
        years = np.arange(2000, 2008)
        eta = -2.0 - 0.03 * (years - years.mean())[:, None] + 0.1 * (
            ages - ages.mean()
        )[None, :]
        q = inverse_logit(eta)
        lines = ["year,age,mx"]
        for i, t in enumerate(years):
            for j, x in enumerate(ages):
                lines.append(f"{t},{x},{float(initial_to_central(q[i, j]))!r}")
        path = tmp_path / "affine.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = run_cli(
            "fit", "--input", path, "--format", "csv", "--ages", "60:62",
            "--years", "2000:2007", "--restarts", "1", "--out", out,
        )
        assert code == EXIT_NONCONVERGENCE
        assert (out / "fit.json").exists()
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is False and doc["sigma2_boundary"] is True

    def test_split_year_trains_on_prefix(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "fit", "--input", data_csv, "--format", "csv", "--ages", "60:63",
            "--years", "1990:2012", "--split-year", "2005", "--restarts", "1",
            "--out", out,
        )
        assert code == EXIT_OK
        doc = json.loads((out / "fit.json").read_text())
        assert doc["window"]["years"] == [1990, 2005]

    def test_dump_matrices_flag(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "fit", "--input", data_csv, "--format", "csv", "--ages", "60:63",
            "--years", "1990:2000", "--restarts", "1", "--dump-matrices",
            "--out", out,
        )
        assert code == EXIT_OK
        for name in ("T", "Z1", "Z2", "Z3", "K1", "K2", "K3", "V"):
            assert (out / f"matrix_{name}.csv").exists()
        Z3 = np.loadtxt(out / "matrix_Z3.csv", delimiter=",")
        assert Z3.shape == (11 * 4, 11 + 4 - 1)

    def test_dump_matrices_is_mixed_only(self, data_csv, tmp_path, capsys):
        code = run_cli(
            "fit", "--model", "cbd", "--input", data_csv, "--ages", "60:63",
            "--years", "1990:2000", "--dump-matrices", "--out", tmp_path / "run",
        )
        assert code == EXIT_ERROR
        assert "--dump-matrices" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_rerun_from_config_is_byte_identical(self, data_csv, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "fit", "--input", data_csv, "--format", "csv", "--ages", "60:63",
            "--years", "1990:2005", "--restarts", "2", "--seed", "7",
            "--out", out,
        )
        first = (out / "fit.json").read_bytes()
        code = run_cli("fit", "--config", out / "run_config.json")
        assert code == EXIT_OK
        assert (out / "fit.json").read_bytes() == first


@pytest.fixture(scope="module")
def fit_dir(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    assert (
        run_cli(
            "fit", "--model", "mixed", "--input", data_csv, "--format",
            "csv", "--ages", "60:63", "--years", "1990:2009",
            "--restarts", "1", "--out", out,
        )
        == EXIT_OK
    )
    return out


class TestForecastCommand:

    def test_row_count_and_columns(self, fit_dir, tmp_path):
        out = tmp_path / "fc"
        code = run_cli(
            "forecast", "--fit", fit_dir / "fit.json", "--horizon", "3",
            "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        assert lines[0] == "year,age,mean_logit,q_mean,lo95,hi95"
        assert len(lines) == 1 + 3 * 4  # horizon x ages
        years = sorted({int(l.split(",")[0]) for l in lines[1:]})
        assert years == [2010, 2011, 2012]

    def test_takes_no_seed(self, fit_dir, tmp_path, capsys):
        args = ("--fit", fit_dir / "fit.json", "--horizon", "2")
        assert run_cli("forecast", *args, "--seed", "3", "--out", tmp_path / "a") == EXIT_ERROR
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # the saved config keeps the field, at its default
        assert run_cli("forecast", *args, "--out", tmp_path / "b") == EXIT_OK
        assert json.loads((tmp_path / "b" / "run_config.json").read_text())["seed"] == 0

    def test_interval_columns_carry_the_exact_level(self, fit_dir, tmp_path):
        out = tmp_path / "fc"
        code = run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon",
                       "2", "--alpha", "0.025", "--out", out)
        assert code == EXIT_OK
        head = (out / "forecast.csv").read_text().splitlines()[0]
        assert head == "year,age,mean_logit,q_mean,lo97.5,hi97.5"
        head = (out / "plot_data.csv").read_text().splitlines()[0]
        assert head == "age,year,mean_logit,lo97.5,hi97.5"
        # a finite band is never labelled 100: six significant digits would
        # round 99.99999 up
        out = tmp_path / "fc7"
        code = run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon",
                       "2", "--alpha", "1e-7", "--out", out)
        assert code == EXIT_OK
        head = (out / "forecast.csv").read_text().splitlines()[0]
        assert head == "year,age,mean_logit,q_mean,lo99.99999,hi99.99999"
        row = (out / "forecast.csv").read_text().splitlines()[1].split(",")
        assert np.all(np.isfinite([float(v) for v in row[4:]]))

    @pytest.mark.parametrize("alpha", ["1e-17", "nan"])
    def test_bad_alpha_exits_one_before_loading(self, fit_dir, tmp_path, capsys,
                                                monkeypatch, alpha):
        # 1 - 1e-17/2 rounds to 1, which would make an infinite band
        def no_load(path):
            raise AssertionError("load_fit called")

        monkeypatch.setattr(artifacts, "load_fit", no_load)
        code = run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon",
                       "2", "--alpha", alpha, "--out", tmp_path / "fc")
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "alpha" in err and repr(float(alpha)) in err
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, cfg: cfg, "no 'schema_version' key"),
        (lambda doc, cfg: {k: v for k, v in doc.items() if k != "params"},
         "no 'params' key"),
        (lambda doc, cfg: {**doc, "params": {k: v for k, v in doc["params"].items()
                                             if k != "sigma2"}},
         "no 'sigma2' key"),
        (lambda doc, cfg: {**doc, "window": {"ages": doc["window"]["ages"]}},
         "no 'years' key"),
        (lambda doc, cfg: {**doc, "schema_version": 2}, "schema_version 2 is not 1"),
        (lambda doc, cfg: [doc], "JSON object"),
    ], ids=["run-config", "no-params", "no-sigma2", "no-years", "schema-2", "list"])
    def test_malformed_artifact_exits_one(self, fit_dir, tmp_path, capsys,
                                          edit, message):
        doc = json.loads((fit_dir / "fit.json").read_text())
        cfg = json.loads((fit_dir / "run_config.json").read_text())
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(edit(doc, cfg)))
        code = run_cli("forecast", "--fit", path, "--horizon", "2",
                       "--out", tmp_path / "fc")
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fc").exists()

    def test_q_mean_is_logistic_of_logit(self, fit_dir, tmp_path):
        out = tmp_path / "fc"
        run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon", "2",
                "--out", out)
        for line in (out / "forecast.csv").read_text().strip().splitlines()[1:]:
            _, _, mean_logit, q_mean, lo, hi = line.split(",")
            assert float(q_mean) == pytest.approx(
                inverse_logit(float(mean_logit)), rel=1e-12
            )
            assert float(lo) < float(mean_logit) < float(hi)

    def test_intervals_match_library_quantile(self, fit_dir, tmp_path):
        out = tmp_path / "fc"
        run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon", "2",
                "--out", out)
        loaded = artifacts.load_fit(fit_dir / "fit.json")
        fc = forecast(loaded, 2, 0.05)
        lo, hi = fc.interval(0.05)
        lines = (out / "forecast.csv").read_text().strip().splitlines()[1:]
        n = loaded.design.n_train
        for line in lines:
            t, x, mean_logit, _, lo_txt, hi_txt = line.split(",")
            i = int(t) - int(fc.years[0])
            j = int(x) - int(fc.ages[0])
            assert float(mean_logit) == fc.mean[i, j]
            assert float(lo_txt) == lo[i, j]
            assert float(hi_txt) == hi[i, j]

    def test_plot_data_grouped_by_age(self, fit_dir, tmp_path):
        out = tmp_path / "fc"
        run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon", "3",
                "--out", out)
        lines = (out / "plot_data.csv").read_text().strip().splitlines()
        ages = [int(l.split(",")[0]) for l in lines[1:]]
        assert ages == sorted(ages)

    def test_model_mismatch(self, fit_dir, tmp_path, capsys):
        code = run_cli(
            "forecast", "--fit", fit_dir / "fit.json", "--model", "cbd",
            "--horizon", "2", "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        assert "does not match" in capsys.readouterr().err

    def test_nonpositive_horizon(self, fit_dir, tmp_path):
        assert (
            run_cli("forecast", "--fit", fit_dir / "fit.json", "--horizon",
                    "0", "--out", tmp_path)
            == EXIT_ERROR
        )

    def test_cbd_artifact_forecasts(self, data_csv, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--model", "cbd", "--input", data_csv, "--format",
                "csv", "--ages", "60:63", "--years", "1990:2009", "--out",
                fit_out)
        fc_out = tmp_path / "fc"
        code = run_cli("forecast", "--fit", fit_out / "fit.json", "--horizon",
                       "2", "--out", fc_out)
        assert code == EXIT_OK
        lines = (fc_out / "forecast.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4


class TestBacktestCommand:
    def test_reports_written_and_deterministic(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = [
            "backtest", "--input", data_csv, "--format", "csv", "--ages",
            "60:63", "--years", "1990:2012", "--horizons", "2,3", "--windows",
            "3", "--models", "cbd", "--seed", "5", "--label", "synthetic",
        ]
        assert run_cli(*args, "--out", out1) == EXIT_OK
        assert run_cli(*args, "--out", out2) == EXIT_OK
        for name in ("report.csv", "report.md", "report.json",
                     "run_config.json"):
            assert (out1 / name).exists()
        assert (out1 / "report.csv").read_bytes() == (
            out2 / "report.csv"
        ).read_bytes()

    def test_rerun_from_saved_config(self, data_csv, tmp_path):
        out = tmp_path / "b"
        args = [
            "backtest", "--input", data_csv, "--format", "csv", "--ages",
            "60:63", "--years", "1990:2012", "--horizons", "2", "--windows",
            "2", "--models", "cbd", "--seed", "3", "--out", out,
        ]
        assert run_cli(*args) == EXIT_OK
        first = (out / "report.csv").read_bytes()
        assert run_cli("backtest", "--config", out / "run_config.json") == EXIT_OK
        assert (out / "report.csv").read_bytes() == first

    def test_infeasible_plan_exits_one(self, data_csv, tmp_path, capsys):
        code = run_cli(
            "backtest", "--input", data_csv, "--format", "csv", "--ages",
            "60:63", "--years", "1990:2012", "--horizons", "20", "--windows",
            "10", "--models", "cbd", "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        assert "infeasible" in capsys.readouterr().err

    def test_unknown_model_rejected(self, data_csv, tmp_path):
        assert (
            run_cli(
                "backtest", "--input", data_csv, "--format", "csv", "--ages",
                "60:63", "--years", "1990:2012", "--models", "arima",
                "--out", tmp_path,
            )
            == EXIT_ERROR
        )

    @pytest.mark.parametrize("flags, message", [
        (("--restarts", "0"), "restarts must be >= 1"),
        (("--exposure", "1e3"), "unrecognized arguments: --exposure"),
        (("--models", ""), "non-empty subset"),
        (("--horizons", "2,x"), "--horizons"),
    ])
    def test_usage_errors_exit_one_before_any_fit(self, data_csv, tmp_path, capsys,
                                                  flags, message):
        code = run_cli(
            "backtest", "--input", data_csv, "--format", "csv", "--ages",
            "60:63", "--years", "1990:2012", "--horizons", "2", "--windows",
            "2", *flags, "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()


class TestRunConfig:
    def test_json_round_trip(self):
        cfg = RunConfig(command="fit", input="x.csv", ages=(60, 89),
                        years=(1947, 2006), models=("mixed",), horizons=(5,))
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception):
            RunConfig.from_json('{"command": "fit", "bogus": 1}')

    def test_var_beta_is_gone(self, data_csv, tmp_path, capsys):
        args = ("--input", data_csv, "--ages", "60:63", "--years", "1990:2005")
        assert run_cli("fit", *args, "--var-beta", "gls", "--out", tmp_path) == EXIT_ERROR
        # a saved config that still carries the field is an unknown field
        cfg = json.loads(RunConfig(command="fit").to_json())
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps({**cfg, "var_beta": "scaled"}))
        assert run_cli("fit", "--config", path) == EXIT_ERROR
        assert "var_beta" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_exposure_is_gone(self, data_csv, tmp_path, capsys):
        args = ("--model", "cbd", "--input", data_csv, "--ages", "60:63",
                "--years", "1990:2005")
        assert run_cli("fit", *args, "--exposure", "1e3", "--out", tmp_path / "a") == EXIT_ERROR
        assert not (tmp_path / "a").exists()
        out = tmp_path / "b"
        assert run_cli("fit", *args, "--out", out) == EXIT_OK
        first = (out / "fit.json").read_bytes()
        cfg = json.loads((out / "run_config.json").read_text())
        # a config saved at the old default still reruns its fit byte for byte
        (out / "fit.json").unlink()
        (out / "run_config.json").write_text(json.dumps({**cfg, "synth_exposure": 100000.0}))
        assert run_cli("fit", "--config", out / "run_config.json") == EXIT_OK
        assert (out / "fit.json").read_bytes() == first
        # any other level named a run that can no longer be reproduced
        path = tmp_path / "other.json"
        other = tmp_path / "c"
        path.write_text(json.dumps({**cfg, "out": str(other), "synth_exposure": 1000.0}))
        capsys.readouterr()
        assert run_cli("fit", "--config", path) == EXIT_ERROR
        assert "synth_exposure 1000.0" in capsys.readouterr().err
        assert not other.exists()

    def test_config_reruns_only_its_own_command(self, fit_dir, tmp_path, capsys):
        saved = (fit_dir / "fit.json").read_bytes()
        code = run_cli("forecast", "--config", fit_dir / "run_config.json")
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "'mortcast fit'" in err and "'mortcast forecast'" in err
        assert (fit_dir / "fit.json").read_bytes() == saved
        assert not (fit_dir / "forecast.csv").exists()
        path = tmp_path / "run_config.json"
        path.write_text(RunConfig(command="backtest", out=str(tmp_path / "bt")).to_json())
        assert run_cli("fit", "--config", path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "'mortcast backtest'" in err and "'mortcast fit'" in err
        assert not (tmp_path / "bt").exists()

    @pytest.mark.parametrize("text, message", [
        ("5", "JSON object"),
        ("[]", "JSON object"),
        ('{"input": "x.csv"}', "'command'"),
    ], ids=["number", "list", "no-command"])
    def test_malformed_config_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "run_config.json"
        path.write_text(text)
        assert run_cli("fit", "--config", path) == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_config_takes_no_other_flag(self, fit_dir, tmp_path, capsys):
        first = tmp_path / "a"
        args = ("--fit", fit_dir / "fit.json", "--horizon", "2", "--out", first)
        assert run_cli("forecast", *args) == EXIT_OK
        saved = (first / "forecast.csv").read_bytes()
        (first / "forecast.csv").unlink()
        config = first / "run_config.json"
        code = run_cli("forecast", "--config", config, "--out", tmp_path / "b",
                       "--horizon", "5")
        assert code == EXIT_ERROR
        assert "also given: --out --horizon" in capsys.readouterr().err
        assert not (first / "forecast.csv").exists()
        assert not (tmp_path / "b").exists()
        # alone, in either spelling, it reruns the saved run
        assert run_cli("forecast", f"--config={config}") == EXIT_OK
        assert (first / "forecast.csv").read_bytes() == saved

    def test_bad_thread_env_exits_one_naming_it(self, data_csv, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("MORTCAST_THREADS", "abc")
        code = run_cli("fit", "--model", "cbd", "--input", data_csv,
                       "--years", "1990:2012", "--ages", "60:63", "--out", tmp_path)
        assert code == EXIT_ERROR
        assert "MORTCAST_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_usage_error_exit_code(self):
        assert main(["fit", "--bogus-flag"]) == EXIT_ERROR
        assert main(["--help"]) == EXIT_OK


class TestArtifacts:
    def test_mixed_round_trip_reproduces_forecast(self, rng, tmp_path):
        surface = make_surface((60, 63), (1995, 2010), rng)
        design = build_design(surface.ages, surface.years)
        f = fit(surface.y, design, restarts=1)
        path = tmp_path / "fit.json"
        artifacts.save_fit(f, path)
        loaded = artifacts.load_fit(path)
        assert isinstance(loaded, MixedFit)
        assert loaded.loglik == f.loglik
        np.testing.assert_array_equal(loaded.params.as_array(),
                                      f.params.as_array())
        np.testing.assert_allclose(loaded.fixed.beta, f.fixed.beta, rtol=1e-14)
        fc0 = forecast(f, 4)
        fc1 = forecast(loaded, 4)
        np.testing.assert_allclose(fc1.mean, fc0.mean, atol=1e-12)
        np.testing.assert_allclose(fc1.variance, fc0.variance, atol=1e-12)

    def test_fit_json_with_a_beta_cov_policy_loads_and_forecasts(self, rng, tmp_path):
        # artifacts written while fit took a beta_cov policy carry its name
        surface = make_surface((60, 63), (1995, 2010), rng)
        f = fit(surface.y, build_design(surface.ages, surface.years), restarts=1)
        path = tmp_path / "fit.json"
        artifacts.save_fit(f, path)
        doc = json.loads(path.read_text())
        assert "beta_cov_policy" not in doc
        path.write_text(json.dumps({**doc, "beta_cov_policy": "scaled"}))
        fc0, fc1 = forecast(f, 4), forecast(artifacts.load_fit(path), 4)
        np.testing.assert_array_equal(fc1.mean, fc0.mean)
        np.testing.assert_array_equal(fc1.variance, fc0.variance)

    def test_rejects_unknown_model_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "arima"}')
        with pytest.raises(ValueError):
            artifacts.load_fit(path)

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mortcast.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "backtest" in proc.stdout


class TestImportHygiene:
    """The package imports nothing, so the CLI pins BLAS before numpy loads."""

    @pytest.mark.parametrize("threads, blas", [(None, "1"), ("2", "2"),
                                               ("abc", "1"), ("0", "1")])
    def test_cli_pins_blas_before_numpy(self, threads, blas):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "MORTCAST_THREADS")}
        if threads is not None:
            env["MORTCAST_THREADS"] = threads
        code = (
            "import os, sys\n"
            "import mortcast\n"
            "assert 'numpy' not in sys.modules, 'import mortcast loaded numpy'\n"
            "import mortcast.cli\n"
            "assert 'scipy' not in sys.modules, 'mortcast.cli loaded scipy'\n"
            "print(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
            "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [blas] * 3

    def test_fit_and_backtest_load_no_scipy(self):
        code = (
            "import sys\n"
            "def no_scipy(when):\n"
            "    assert 'scipy' not in sys.modules, f'scipy loaded {when}'\n"
            "import mortcast.cli\n"
            "no_scipy('by import mortcast.cli')\n"
            "import numpy as np\n"
            "from mortcast.backtest import BacktestPlan, run_backtest\n"
            "from mortcast.cbd import fit_cbd, synthesize_counts\n"
            "from mortcast.data import MortalitySurface, inverse_logit\n"
            "from mortcast.design import KernelParams, build_design\n"
            "from mortcast.mixed import fit, simulate, unstack_vector\n"
            "d = build_design(range(60, 64), range(1990, 2010))\n"
            "p = KernelParams(0.4, 16.0, 0.05, 16.0, 0.25, 30.0, 0.01)\n"
            "y = simulate(d, p, [-3.0, -0.03], np.random.default_rng(0))\n"
            "fit(y, d, restarts=1)\n"
            "grid = unstack_vector(y, d.n_train, d.n_ages)\n"
            "q = inverse_logit(grid)\n"
            "fit_cbd(*synthesize_counts(q), d.ages, d.train_years)\n"
            "surface = MortalitySurface(ages=d.ages, years=d.train_years, q=q)\n"
            "run_backtest(BacktestPlan(ages=(60, 63), horizons=(2,), windows=2,\n"
            "                          restarts=1, workers=1), surface)\n"
            "no_scipy('by a mixed fit, a CBD fit or a backtest')\n"
            "import mortcast.forecasts\n"
            "no_scipy('by import mortcast.forecasts')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_forecast_loads_no_scipy(self, data_csv, fit_dir, tmp_path):
        cbd_dir = tmp_path / "cbd"
        assert run_cli("fit", "--model", "cbd", "--input", data_csv, "--ages", "60:63",
                       "--years", "1990:2009", "--out", cbd_dir) == EXIT_OK
        code = (
            "import sys\n"
            "from mortcast.cli import main\n"
            "for fit, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert main(['forecast', '--fit', fit, '--horizon', '3', '--out', out]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, f'forecast loaded {loaded}'\n"
        )
        args = [fit_dir / "fit.json", tmp_path / "mixed_fc", cbd_dir / "fit.json",
                tmp_path / "cbd_fc"]
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "mixed_fc" / "forecast.csv").exists()
        assert (tmp_path / "cbd_fc" / "forecast.csv").exists()

    def test_no_module_level_scipy_import(self):
        """The package imports scipy nowhere, not even in a function body:
        scipy is a test-only dependency."""
        offenders = []
        for path in sorted(Path(mortcast.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    names = []
                if any(n.split(".")[0] == "scipy" for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, f"scipy imports: {offenders}"

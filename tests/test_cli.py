import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_surface, surface_to_mx_csv

import mortcast
from mortcast import artifacts
from mortcast import cbd as cbd_mod
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


@pytest.fixture(scope="module")
def noiseless_csv(tmp_path_factory):
    # logit q = -3 + 0.1 (x - 60) - 0.02 (t - 1995), so m = log(1 + exp(logit q)):
    # with no noise to fit, sigma2 runs to its lower boundary and a mixed fit exits 2
    path = tmp_path_factory.mktemp("noiseless") / "noiseless.csv"
    path.write_text("year,age,mx\n" + "".join(
        f"{t},{x},{math.log1p(math.exp(-3 + 0.1 * (x - 60) - 0.02 * (t - 1995)))!r}\n"
        for t in range(1995, 2015) for x in range(60, 65)))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def _run_fresh(code, *args):
    """Run ``code`` in a new interpreter with ``args`` as sys.argv[1:]; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("model", ["mixed", "cbd"])
    def test_byte_order_mark_leaves_the_fit(self, data_csv, tmp_path, model):
        # spreadsheet exports open a UTF-8 CSV with U+FEFF
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + data_csv.read_text(), encoding="utf-8")
        fits = []
        for name, path in (("plain", data_csv), ("marked", marked)):
            assert run_cli("fit", "--model", model, "--input", path, "--ages", "60:63",
                           "--years", "1990:2009", "--restarts", "1",
                           "--out", tmp_path / name) == EXIT_OK
            fits.append((tmp_path / name / "fit.json").read_bytes())
        assert fits[1] == fits[0]

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

    def test_ages_not_a_range(self, data_csv, tmp_path, capsys):
        code = run_cli("fit", "--input", data_csv, "--ages", "abc", "--years",
                       "1990:2009", "--out", tmp_path / "run")
        assert code == EXIT_ERROR
        assert "--ages: expects LO:HI, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("drop, message", [
        ("--input", "--input is required"),
        ("--years", "--ages and --years are required"),
    ])
    def test_window_flags_are_required(self, data_csv, tmp_path, capsys, drop, message):
        flags = {"--input": data_csv, "--ages": "60:63", "--years": "1990:2009",
                 "--out": tmp_path / "run"}
        code = run_cli("fit", *(a for k, v in flags.items() if k != drop for a in (k, v)))
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_reversed_year_range(self, data_csv, tmp_path, capsys):
        code = run_cli(
            "fit", "--input", data_csv, "--format", "csv",
            "--ages", "60:63", "--years", "2006:1947", "--out", tmp_path,
        )
        assert code == EXIT_ERROR
        # data._axis is the one check, and it names the axis
        assert "years range 2006:1947 is reversed" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, flags, message", [
        (None, ("--ages", "60:100000000000"), "error: no data for (year=1990, age=64)"),
        (lambda text: "".join(f"{line},{line.split(',')[2]}\n" for line in text.splitlines()),
         (), "error: line 1: repeated column(s) ['mx']"),
        (lambda text: text + "100000000000000000000000000000,60,0.01\n", (),
         "is outside the 64-bit integer range"),
        # a bad mx used to exit with "central rate must be finite", naming no cell
        (lambda text: re.sub(r"(?m)^1995,61,.*$", "1995,61,nan", text), (),
         "error: central rate is not finite and >= 0 at (year=1995, age=61)\n"),
    ], ids=["huge-window", "repeated-column", "year-past-int64", "nan-mx"])
    def test_outside_input_exits_one_with_one_error_line(self, data_csv, tmp_path, capsys,
                                                          edit, flags, message):
        # each used to end in a traceback, or, for the repeated mx column, in a fit
        path = data_csv
        if edit is not None:
            path = tmp_path / "edited.csv"
            path.write_text(edit(data_csv.read_text()))
        argv = {"--input": path, "--ages": "60:63", "--years": "1990:2009",
                "--out": tmp_path / "run", **dict(zip(flags[::2], flags[1::2]))}
        code = run_cli("fit", "--model", "cbd", *(a for kv in argv.items() for a in kv))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not (tmp_path / "run").exists()

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

    def test_negative_seed_exits_one_naming_it(self, data_csv, tmp_path, capsys):
        code = run_cli("fit", "--input", data_csv, "--ages", "60:63", "--years",
                       "1990:2005", "--restarts", "1", "--seed", "-1",
                       "--out", tmp_path / "run")
        assert code == EXIT_ERROR
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_rerun_from_config_is_byte_identical(self, data_csv, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "fit", "--input", data_csv, "--format", "csv", "--ages", "60:63",
            "--years", "1990:2005", "--restarts", "2", "--seed", "7",
            "--out", out,
        )
        first = (out / "fit.json").read_bytes()
        code = run_cli("rerun", out / "run_config.json")
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


@pytest.fixture(scope="module")
def cbd_fit_dir(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cbd_fit")
    assert run_cli("fit", "--model", "cbd", "--input", data_csv, "--ages", "60:63",
                   "--years", "1990:2009", "--out", out) == EXIT_OK
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
        (lambda doc, cfg: {**doc, "schema_version": True}, "schema_version True is not int"),
        (lambda doc, cfg: {**doc, "schema_version": 1.0}, "schema_version 1.0 is not int"),
        (lambda doc, cfg: [doc], "JSON object"),
        (lambda doc, cfg: {**doc, "window": 5}, "window 5 is not"),
        (lambda doc, cfg: {**doc, "params": 5}, "params 5 is not dict"),
        (lambda doc, cfg: {**doc, "n_iter": None}, "n_iter None is not int"),
        (lambda doc, cfg: {**doc, "n_iter": True}, "n_iter True is not int"),
        (lambda doc, cfg: {**doc, "params": {**doc["params"], "h1": "1"}},
         "h1 '1' is not float"),
        (lambda doc, cfg: {**doc, "y": doc["y"][1:]}, "is not float[20][4]"),
        # json reads NaN and Infinity as floats: these loaded, and the forecast
        # exited with "non-finite forecast mean or variance", naming no key
        (lambda doc, cfg: {**doc, "y": [[math.nan, *doc["y"][0][1:]], *doc["y"][1:]]},
         "error: fit artifact y [[nan, "),
        (lambda doc, cfg: {**doc, "y": [[-math.inf, *doc["y"][0][1:]], *doc["y"][1:]]},
         "error: fit artifact y [[-inf, "),
    ], ids=["run-config", "no-params", "no-sigma2", "no-years", "schema-2",
            "schema-true", "schema-float", "list",
            "window-int", "params-int", "n_iter-null", "n_iter-bool", "h1-str",
            "y-short", "y-nan", "y-minus-infinity"])
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

    @pytest.mark.parametrize("key, value, message", [
        ("n_sweeps", None, "n_sweeps None is not int"),
        ("kappa1", {}, "kappa1 {} is not float[20]"),
        ("constraint_residuals", 5, "constraint_residuals 5 is not float[2]"),
        ("gamma3", 5, "gamma3 5 is not float[23]"),
        ("converged", 1, "converged 1 is not bool"),
        ("loglik_trace", [], "loglik_trace [] is not float[1+]"),
        ("window", {"ages": [60, 63], "years": [2009, 1990]},
         "years range 2009:1990 is reversed"),
        ("kappa1", [math.nan] + [-3.0] * 19,
         "error: fit artifact kappa1 [nan, -3.0, -3.0, -3.0, -3.0, -3.0, ...] is not float[20]"),
        ("loglik", math.inf, "error: fit artifact loglik inf is not float"),
    ], ids=["n_sweeps-null", "kappa1-object", "residuals-int", "gamma3-int",
            "converged-int", "trace-empty", "window-reversed", "kappa1-nan", "loglik-infinity"])
    def test_malformed_cbd_artifact_exits_one(self, cbd_fit_dir, tmp_path, capsys,
                                              key, value, message):
        doc = json.loads((cbd_fit_dir / "fit.json").read_text())
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({**doc, key: value}))
        code = run_cli("forecast", "--fit", path, "--horizon", "2",
                       "--out", tmp_path / "fc")
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("model, window, key, shape", [
        ("cbd", {"ages": [60, 63], "years": [1990, 100000000000]}, "kappa1", "[99999998011]"),
        ("cbd", {"ages": [60, 100000000000], "years": [1990, 2009]},
         "gamma3", "[99999999960]"),
        ("cbd", {"ages": [60, 63], "years": [0, 10**20]}, "kappa1", f"[{10**20 + 1}]"),
        ("mixed", {"ages": [60, 63], "years": [1990, 100000000000]}, "y", "[99999998011][4]"),
        ("mixed", {"ages": [60, 100000000000], "years": [1990, 2009]},
         "y", "[20][99999999941]"),
    ], ids=["cbd-years", "cbd-ages", "cbd-past-2**63", "mixed-years", "mixed-ages"])
    def test_window_longer_than_its_curves(self, fit_dir, cbd_fit_dir, tmp_path, model,
                                           window, key, shape):
        # the curves' lengths are checked before the window's axes are built;
        # the axes came first, and 10**11 years asked numpy for 745 GiB
        doc = json.loads(({"mixed": fit_dir, "cbd": cbd_fit_dir}[model] / "fit.json")
                         .read_text())
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({**doc, "window": window}))
        with pytest.raises(ValueError,
                           match=rf"^fit artifact {key} \[.*\] is not float{re.escape(shape)}$"):
            artifacts.load_fit(path)

    @pytest.mark.parametrize("key, value", [
        ("x_bar", 0.0), ("x_bar", [1]), ("included", [1]), ("included", [0.5] * 23),
    ], ids=["x_bar-zero", "x_bar-list", "included-short", "included-half"])
    def test_cbd_loader_derives_x_bar_and_included(self, cbd_fit_dir, tmp_path,
                                                   key, value):
        # both follow from the window, as in the fit; the artifact's copies are not read
        doc = json.loads((cbd_fit_dir / "fit.json").read_text())
        assert doc["x_bar"] == 61.5 and len(doc["included"]) == 23
        outputs = []
        for name, edited in (("saved", doc), ("edited", {**doc, key: value})):
            path = tmp_path / name / "fit.json"
            path.parent.mkdir()
            path.write_text(json.dumps(edited))
            assert run_cli("forecast", "--fit", path, "--horizon", "3",
                           "--out", tmp_path / name) == EXIT_OK
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("forecast.csv", "plot_data.csv")])
        assert outputs[1] == outputs[0]

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

    def test_fit_is_required(self, tmp_path, capsys):
        code = run_cli("forecast", "--horizon", "2", "--out", tmp_path / "fc")
        assert code == EXIT_ERROR
        assert "--fit is required" in capsys.readouterr().err
        assert not (tmp_path / "fc").exists()

    def test_missing_fit_names_path(self, tmp_path, capsys):
        code = run_cli("forecast", "--fit", tmp_path / "nope" / "fit.json", "--horizon",
                       "2", "--out", tmp_path / "fc")
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "fit artifact not found" in err and "nope" in err
        assert not (tmp_path / "fc").exists()

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
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert (out / "report.csv").read_bytes() == first

    def test_failed_window_is_a_warning(self, data_csv, tmp_path, capsys, monkeypatch):
        fit_cbd = cbd_mod.fit_cbd

        def flaky_fit(D, E, ages, years):
            if years[-1] == 2009:
                raise ValueError("no convergence in this window")
            return fit_cbd(D, E, ages, years)

        monkeypatch.setenv("MORTCAST_THREADS", "1")  # fits run in this process
        monkeypatch.setattr(cbd_mod, "fit_cbd", flaky_fit)
        code = run_cli("backtest", "--input", data_csv, "--ages", "60:63", "--years",
                       "1990:2012", "--horizons", "2", "--windows", "2", "--models", "cbd",
                       "--out", tmp_path)
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "WARNING: 1 window(s) excluded after fit failures" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["failures"] == ["cbd h=2 window=0 (train to 2009): "
                                      "ValueError: no convergence in this window"]

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
        (("--seed", "-1"), "seed must be"),
        (("--label", "a\rb"), "label may not hold a carriage return"),
        (("--models", "cbd,cbd"), "models must be distinct"),
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
        assert run_cli("rerun", path) == EXIT_ERROR
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
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert (out / "fit.json").read_bytes() == first
        # any other level named a run that can no longer be reproduced
        path = tmp_path / "other.json"
        other = tmp_path / "c"
        path.write_text(json.dumps({**cfg, "out": str(other), "synth_exposure": 1000.0}))
        capsys.readouterr()
        assert run_cli("rerun", path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "synth_exposure 1000.0" in err and "retired at 100000.0" in err
        assert not other.exists()

    def test_dump_matrices_is_gone(self, data_csv, tmp_path, capsys):
        args = ("--input", data_csv, "--ages", "60:63", "--years", "1990:2000",
                "--restarts", "1")
        assert run_cli("fit", *args, "--dump-matrices", "--out", tmp_path / "a") == EXIT_ERROR
        assert not (tmp_path / "a").exists()
        out = tmp_path / "b"
        assert run_cli("fit", *args, "--out", out) == EXIT_OK
        first = (out / "fit.json").read_bytes()
        cfg = json.loads((out / "run_config.json").read_text())
        assert "dump_matrices" not in cfg
        # a config saved while the flag existed reruns its fit byte for byte
        (out / "fit.json").unlink()
        (out / "run_config.json").write_text(json.dumps({**cfg, "dump_matrices": False}))
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert (out / "fit.json").read_bytes() == first
        # one that asked for the matrices names a run that is gone
        path = tmp_path / "dump.json"
        other = tmp_path / "c"
        path.write_text(json.dumps({**cfg, "out": str(other), "dump_matrices": True}))
        capsys.readouterr()
        assert run_cli("rerun", path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "dump_matrices true" in err and "retired at false" in err
        assert not other.exists()

    @pytest.mark.parametrize("model", ["mixed", "cbd"])
    def test_split_year_is_gone(self, data_csv, tmp_path, capsys, model):
        args = ("--model", model, "--input", data_csv, "--ages", "60:63",
                "--restarts", "1")
        code = run_cli("fit", *args, "--years", "1990:2012", "--split-year", "2005",
                       "--out", tmp_path / "a")
        assert code == EXIT_ERROR
        assert "--split-year" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # --years names the training window
        out = tmp_path / "b"
        assert run_cli("fit", *args, "--years", "1990:2005", "--out", out) == EXIT_OK
        first = (out / "fit.json").read_bytes()
        assert json.loads(first)["window"]["years"] == [1990, 2005]
        cfg = json.loads((out / "run_config.json").read_text())
        assert "split_year" not in cfg
        # a config saved while the flag existed reruns its fit byte for byte
        (out / "fit.json").unlink()
        (out / "run_config.json").write_text(json.dumps({**cfg, "split_year": None}))
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert (out / "fit.json").read_bytes() == first
        # one that split its window names a run --years LO:Y now states
        path = tmp_path / "split.json"
        other = tmp_path / "c"
        path.write_text(json.dumps({**cfg, "out": str(other), "years": [1990, 2012],
                                    "split_year": 2005}))
        capsys.readouterr()
        assert run_cli("rerun", path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "split_year 2005" in err and "retired at null" in err
        assert not other.exists()

    def test_forecast_model_is_gone(self, fit_dir, tmp_path, capsys):
        args = ("--fit", fit_dir / "fit.json", "--horizon", "2")
        for model in ("mixed", "cbd"):
            code = run_cli("forecast", *args, "--model", model, "--out", tmp_path / "a")
            assert code == EXIT_ERROR
            assert "--model" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # the artifact's tag decides the model; the saved config keeps the field
        out = tmp_path / "b"
        assert run_cli("forecast", *args, "--out", out) == EXIT_OK
        assert capsys.readouterr().out.startswith("mixed forecast:")
        first = (out / "forecast.csv").read_bytes()
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["model"] is None
        # a config saved with the tag reruns: the value is not read
        (out / "forecast.csv").unlink()
        (out / "run_config.json").write_text(json.dumps({**cfg, "model": "mixed"}))
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert (out / "forecast.csv").read_bytes() == first

    @pytest.mark.parametrize("command", ["fit", "forecast", "backtest"])
    def test_rw_divisor_is_gone(self, data_csv, cbd_fit_dir, tmp_path, capsys, command):
        args, outputs = {
            "fit": (("--model", "cbd", "--input", data_csv, "--ages", "60:63",
                     "--years", "1990:2005"), ("fit.json",)),
            "forecast": (("--fit", cbd_fit_dir / "fit.json", "--horizon", "2"),
                         ("forecast.csv", "plot_data.csv")),
            "backtest": (("--input", data_csv, "--ages", "60:63", "--years", "1990:2012",
                          "--horizons", "2", "--windows", "2", "--models", "cbd"),
                         ("report.csv", "report.json", "report.md")),
        }[command]
        if command != "fit":  # fit never took the flag
            code = run_cli(command, *args, "--rw-divisor", "n", "--out", tmp_path / "a")
            assert code == EXIT_ERROR
            assert "--rw-divisor" in capsys.readouterr().err
            assert not (tmp_path / "a").exists()
        out = tmp_path / "b"
        assert run_cli(command, *args, "--out", out) == EXIT_OK
        first = [(out / name).read_bytes() for name in outputs]
        cfg = json.loads((out / "run_config.json").read_text())
        assert "rw_divisor" not in cfg
        # every config saved while the flag existed holds "n" and reruns byte for byte
        for name in outputs:
            (out / name).unlink()
        (out / "run_config.json").write_text(json.dumps({**cfg, "rw_divisor": "n"}))
        assert run_cli("rerun", out / "run_config.json") == EXIT_OK
        assert [(out / name).read_bytes() for name in outputs] == first
        # one that chose the other denominator names a run that is gone
        path = tmp_path / "unbiased.json"
        other = tmp_path / "c"
        path.write_text(json.dumps({**cfg, "out": str(other), "rw_divisor": "n-1"}))
        capsys.readouterr()
        assert run_cli("rerun", path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert 'rw_divisor "n-1"' in err and 'retired at "n"' in err
        assert not other.exists()

    @pytest.mark.parametrize("text, message", [
        ("5", "JSON object"),
        ("[]", "JSON object"),
        ('{"input": "x.csv"}', "'command'"),
    ], ids=["number", "list", "no-command"])
    def test_malformed_config_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "run_config.json"
        path.write_text(text)
        assert run_cli("rerun", path) == EXIT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("ages", 5, "config ages 5 is not tuple[int, int] | None"),
        ("restarts", "3", "config restarts '3' is not int"),
    ], ids=["ages-int", "restarts-str"])
    def test_mistyped_config_value_exits_one(self, fit_dir, tmp_path, capsys,
                                             key, value, message):
        cfg = json.loads((fit_dir / "run_config.json").read_text())
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps({**cfg, key: value, "out": str(tmp_path / "out")}))
        assert run_cli("rerun", path) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_takes_no_other_flag(self, fit_dir, tmp_path, capsys):
        first = tmp_path / "a"
        args = ("--fit", fit_dir / "fit.json", "--horizon", "2", "--out", first)
        assert run_cli("forecast", *args) == EXIT_OK
        saved = (first / "forecast.csv").read_bytes()
        (first / "forecast.csv").unlink()
        config = first / "run_config.json"
        code = run_cli("rerun", config, "--out", tmp_path / "b", "--horizon", "5")
        assert code == EXIT_ERROR
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (first / "forecast.csv").exists()
        assert not (tmp_path / "b").exists()
        # alone, it reruns the saved run
        assert run_cli("rerun", config) == EXIT_OK
        assert (first / "forecast.csv").read_bytes() == saved

    @pytest.mark.parametrize("command", ["fit", "forecast", "backtest"])
    def test_config_flag_is_gone(self, fit_dir, tmp_path, capsys, command):
        # the saved config names its command, so `rerun` is the one way to repeat it
        cfg = json.loads((fit_dir / "run_config.json").read_text())
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps({**cfg, "out": str(tmp_path / "out")}))
        assert run_cli(command, "--config", path) == EXIT_ERROR
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [None, "rerun", "arima"],
                             ids=["missing", "rerun", "arima"])
    def test_config_command_must_be_a_command(self, fit_dir, tmp_path, capsys, command):
        cfg = {**json.loads((fit_dir / "run_config.json").read_text()),
               "out": str(tmp_path / "out"), "command": command}
        if command is None:
            del cfg["command"]
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("rerun", path) == EXIT_ERROR
        assert "'command'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", [None, "arima"], ids=["null", "arima"])
    def test_fit_config_model_must_be_a_model(self, fit_dir, tmp_path, capsys, model):
        # the flag's choices guard only the command line; such a config once
        # fitted CBD and saved the bad value again
        cfg = {**json.loads((fit_dir / "run_config.json").read_text()),
               "out": str(tmp_path / "out"), "model": model}
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("rerun", path) == EXIT_ERROR
        assert f"config 'model' {model!r} is not mixed or cbd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_is_read_whole(self, data_csv, tmp_path, capsys):
        # a missing key is an error, not RunConfig's default: that default is
        # not always the flag's (restarts 3 against backtest's 1, ages None
        # against 60:89)
        out = tmp_path / "bt"
        assert run_cli("backtest", "--input", data_csv, "--ages", "60:63", "--years",
                       "1990:2012", "--horizons", "2", "--windows", "2", "--models",
                       "cbd", "--out", out) == EXIT_OK
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["restarts"] == 1
        path = tmp_path / "run_config.json"
        for drop in (["restarts"], ["ages", "seed"]):
            kept = {k: v for k, v in cfg.items() if k not in drop}
            path.write_text(json.dumps({**kept, "out": str(tmp_path / "c")}))
            assert run_cli("rerun", path) == EXIT_ERROR
            assert f"config lacks field(s): {drop}" in capsys.readouterr().err
            assert not (tmp_path / "c").exists()
        # every config the CLI writes holds every field
        assert sorted(cfg) == sorted(json.loads(RunConfig(command="fit").to_json()))

    def test_missing_config_file_names_it(self, tmp_path, capsys):
        assert run_cli("rerun", tmp_path / "nope.json") == EXIT_ERROR
        assert "nope.json" in capsys.readouterr().err

    def test_bad_thread_env_exits_one_naming_it(self, data_csv, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("MORTCAST_THREADS", "abc")
        code = run_cli("backtest", "--input", data_csv, "--ages", "60:63",
                       "--years", "1990:2012", "--horizons", "2", "--windows", "2",
                       "--out", tmp_path)
        assert code == EXIT_ERROR
        assert "MORTCAST_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_fit_does_not_read_thread_env(self, data_csv, tmp_path, monkeypatch):
        # MORTCAST_THREADS sets the backtest's workers and nothing else
        monkeypatch.setenv("MORTCAST_THREADS", "abc")
        code = run_cli("fit", "--input", data_csv, "--years", "1990:2000",
                       "--ages", "60:63", "--restarts", "1", "--out", tmp_path)
        assert code == EXIT_OK
        assert (tmp_path / "fit.json").exists()

    def test_usage_error_exit_code(self):
        assert main(["fit", "--bogus-flag"]) == EXIT_ERROR
        assert main(["--help"]) == EXIT_OK


class TestWorkerCount:
    """MORTCAST_THREADS is read by the backtest command alone, which passes it
    as the plan's worker count; the pools it starts are recorded here and run
    their fits in this process. Horizons 2 and 3 with three windows make four
    fits."""

    ARGS = ("backtest", "--ages", "60:63", "--years", "1990:2012", "--horizons",
            "2,3", "--windows", "3", "--models", "cbd")

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        import mortcast.backtest as bt
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bt, "ProcessPoolExecutor", InProcessPool)
        return sizes

    @pytest.mark.parametrize("threads, pools", [("1", []), ("2", [2]), ("9", [4])],
                             ids=["1", "2", "9"])
    def test_thread_env_caps_workers(self, data_csv, tmp_path, monkeypatch,
                                     pool_sizes, threads, pools):
        monkeypatch.setenv("MORTCAST_THREADS", threads)
        assert run_cli(*self.ARGS, "--input", data_csv, "--out", tmp_path) == EXIT_OK
        assert pool_sizes == pools

    def test_explicit_cap_wins_over_the_cpus(self, data_csv, tmp_path, monkeypatch,
                                             pool_sizes):
        # pinned to one CPU: one worker by default, and an explicit 3 still 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("MORTCAST_THREADS", raising=False)
        assert run_cli(*self.ARGS, "--input", data_csv, "--out", tmp_path / "a") == EXIT_OK
        monkeypatch.setenv("MORTCAST_THREADS", "3")
        assert run_cli(*self.ARGS, "--input", data_csv, "--out", tmp_path / "b") == EXIT_OK
        assert pool_sizes == [3]
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_thread_env_is_a_usage_error(self, data_csv, tmp_path, monkeypatch,
                                             capsys, pool_sizes, value):
        monkeypatch.setenv("MORTCAST_THREADS", value)
        assert run_cli(*self.ARGS, "--input", data_csv, "--out", tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"MORTCAST_THREADS must be a positive integer, got {value!r}" in err
        assert pool_sizes == [] and not list(tmp_path.iterdir())


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

    @staticmethod
    def _blas_vars_after_cli_import(**set_vars):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "MORTCAST_THREADS")}
        env.update(set_vars)
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
        return proc.stdout.split()

    @pytest.mark.parametrize("threads, blas", [(None, "1"), ("2", "1"),
                                               ("abc", "1"), ("0", "1")])
    def test_cli_pins_blas_before_numpy(self, threads, blas):
        # MORTCAST_THREADS sets the backtest's workers, never BLAS
        env = {} if threads is None else {"MORTCAST_THREADS": threads}
        assert self._blas_vars_after_cli_import(**env) == [blas] * 3

    def test_cli_keeps_a_set_blas_variable(self):
        got = self._blas_vars_after_cli_import(OPENBLAS_NUM_THREADS="3",
                                               MORTCAST_THREADS="2")
        assert got == ["3", "1", "1"]

    def test_cli_import_loads_no_model(self):
        _run_fresh(
            "import sys\n"
            "import mortcast.cli\n"
            "loaded = [m for m in ('mortcast.mixed', 'mortcast.design', 'mortcast.cbd',\n"
            "                      'mortcast.forecasts', 'mortcast.backtest', 'logging')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, f'import mortcast.cli loaded {loaded}'\n"
        )

    def test_cli_and_backtest_load_every_traced_layer(self):
        # perfbench/tracer.py wraps these layers' functions after importing
        # mortcast.cli and mortcast.backtest, reading each from sys.modules
        _run_fresh(
            "import sys\n"
            "import mortcast.cli, mortcast.backtest\n"
            "missing = [m for m in ('data', 'design', 'mixed', 'cbd', 'artifacts',\n"
            "                       'backtest') if f'mortcast.{m}' not in sys.modules]\n"
            "assert not missing, f'layers not loaded: {missing}'\n"
        )

    @pytest.mark.parametrize("model, others", [
        ("mixed", ["mortcast.cbd"]),
        ("cbd", ["mortcast.mixed", "mortcast.design"]),
    ], ids=["mixed", "cbd"])
    def test_fit_and_forecast_load_only_their_model(self, data_csv, tmp_path,
                                                      model, others):
        _run_fresh(
            "import sys\n"
            "from mortcast.cli import main\n"
            "model, data, out, *others = sys.argv[1:]\n"
            "assert main(['fit', '--model', model, '--input', data, '--ages', '60:63',\n"
            "             '--years', '1990:2009', '--restarts', '1', '--out', out]) == 0\n"
            "assert main(['forecast', '--fit', f'{out}/fit.json', '--horizon', '3',\n"
            "             '--out', out]) == 0\n"
            "loaded = [m for m in others if m in sys.modules]\n"
            "assert not loaded, f'a {model} fit and forecast loaded {loaded}'\n",
            model, data_csv, tmp_path, *others,
        )
        assert (tmp_path / "forecast.csv").exists()

    def test_fit_and_backtest_load_no_scipy(self):
        code = (
            "import sys\n"
            "def no_scipy(when):\n"
            "    assert 'scipy' not in sys.modules, f'scipy loaded {when}'\n"
            "import mortcast.cli\n"
            "no_scipy('by import mortcast.cli')\n"
            "import numpy as np\n"
            "from mortcast.backtest import BacktestPlan, run_backtest\n"
            "from mortcast.cbd import fit_cbd\n"
            "from mortcast.data import MortalitySurface, inverse_logit, synthesize_counts\n"
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

    def test_only_backtest_loads_a_process_pool(self, data_csv, tmp_path):
        code = (
            "import sys\n"
            "def pool(when, loaded):\n"
            "    got = [m for m in ('multiprocessing', 'concurrent.futures')\n"
            "           if (m in sys.modules) != loaded]\n"
            "    assert not got, f'{got} {\"not \" * loaded}loaded {when}'\n"
            "from mortcast.cli import main\n"
            "pool('by import mortcast.cli', False)\n"
            "data, out = sys.argv[1:]\n"
            "window = ['--input', data, '--ages', '60:63', '--years', '1990:2009']\n"
            "for model in ('mixed', 'cbd'):\n"
            "    assert main(['fit', '--model', model, *window, '--restarts', '1',\n"
            "                 '--out', f'{out}/{model}']) == 0\n"
            "    assert main(['forecast', '--fit', f'{out}/{model}/fit.json',\n"
            "                 '--horizon', '3', '--out', f'{out}/{model}']) == 0\n"
            "pool('by fit or forecast', False)\n"
            "assert main(['backtest', *window, '--models', 'cbd', '--horizons', '2',\n"
            "             '--windows', '2', '--out', f'{out}/bt']) == 0\n"
            "pool('by backtest', True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(data_csv), str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bt" / "report.csv").exists()

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


class TestConsoleEntry:
    """The installed script freezes the import-time heap before ``main()``, so
    shutdown's collections skip it; imports and ``main()`` never freeze."""

    NOISELESS_FIT = ["fit", "--ages", "60:64", "--years", "1995:2014", "--restarts", "1"]

    @staticmethod
    def _module(*args):
        return subprocess.run([sys.executable, "-m", "mortcast.cli", *map(str, args)],
                              capture_output=True, text=True)

    def test_library_never_freezes(self, data_csv, tmp_path):
        _run_fresh(
            "import gc, sys\n"
            "import mortcast.backtest, mortcast.cbd, mortcast.forecasts, mortcast.mixed\n"
            "from mortcast.cli import main\n"
            "data, out = sys.argv[1:]\n"
            "window = ['--input', data, '--ages', '60:63', '--years', '1990:2009']\n"
            "assert main(['fit', *window, '--restarts', '1', '--out', out]) == 0\n"
            "assert main(['backtest', *window, '--models', 'cbd', '--horizons', '2',\n"
            "             '--windows', '2', '--out', out]) == 0\n"
            "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n",
            data_csv, tmp_path,
        )
        assert (tmp_path / "fit.json").exists() and (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("code", [EXIT_OK, EXIT_ERROR, EXIT_NONCONVERGENCE],
                             ids=["ok", "usage-error", "nonconvergence"])
    def test_console_entry_freezes_and_exits_with_mains_code(
            self, data_csv, noiseless_csv, tmp_path, code):
        args = {EXIT_OK: ["fit", "--input", data_csv, "--ages", "60:63",
                          "--years", "1990:2009", "--restarts", "1"],
                EXIT_ERROR: ["fit", "--ages", "60:63"],  # no --input
                EXIT_NONCONVERGENCE: [*self.NOISELESS_FIT, "--input", noiseless_csv]}[code]
        _run_fresh(
            "import gc, sys\n"
            "from mortcast import cli\n"
            "code = int(sys.argv[1])\n"
            "sys.argv = ['mortcast', *sys.argv[2:]]\n"
            "try:\n"
            "    cli.console_entry()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == code, exc.code\n"
            "else:\n"
            "    raise AssertionError('console_entry returned')\n"
            "assert gc.get_freeze_count() > 0\n",
            code, *args, "--out", tmp_path,
        )

    def test_module_exits_zero_or_one(self, data_csv, tmp_path):
        ok = self._module("fit", "--input", data_csv, "--ages", "60:63",
                          "--years", "1990:2009", "--restarts", "1", "--out", tmp_path / "ok")
        assert ok.returncode == EXIT_OK, ok.stderr
        assert (tmp_path / "ok" / "fit.json").exists()
        bad = self._module("fit", "--ages", "60:63", "--out", tmp_path / "bad")
        assert bad.returncode == EXIT_ERROR
        assert bad.stderr == "error: --input is required\n"
        assert not (tmp_path / "bad").exists()

    def test_module_exits_two_with_the_in_process_outputs(self, noiseless_csv, tmp_path,
                                                          capsys):
        args = [*self.NOISELESS_FIT, "--input", noiseless_csv, "--out", tmp_path]
        proc = self._module(*args)
        assert proc.returncode == EXIT_NONCONVERGENCE, proc.stderr
        assert "warning: sigma2 at its lower boundary" in proc.stdout
        names = ("fit.json", "run_config.json")
        written = [(tmp_path / name).read_bytes() for name in names]
        capsys.readouterr()
        assert run_cli(*args) == EXIT_NONCONVERGENCE
        # the same stdout but for the fit's elapsed seconds, which end it
        assert capsys.readouterr().out.rsplit(" in ", 1)[0] == proc.stdout.rsplit(" in ", 1)[0]
        assert [(tmp_path / name).read_bytes() for name in names] == written

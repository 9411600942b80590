"""Workload definitions, seeded synthetic inputs and output checks.

Each workload is one closed-loop client session against the ``mortcast``
CLI: ``fit`` on a training window, ``forecast`` over the held-out years
from the resulting ``fit.json``, then ``backtest`` on the whole surface.
The workloads differ in the model that is fitted, the surface it is
fitted on, and whether the backtest's CSV carries death counts; see
README.md in this directory for why each was chosen.

Inputs are drawn from the models themselves with the program's public
generators (``mortcast.mixed.simulate``, ``mortcast.cbd.linear_predictor``
and ``death_rate``), so the generating parameters are known. The checks
below do not reuse the program's likelihood code: the profile likelihoods
at the generating parameters are computed here from the model definitions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special

#: Generating hyperparameters of the mixed-model surface. The age effect
#: has a 60-year range (l1 = 60**2), so it is smooth over the 30 ages, and
#: a slope with standard deviation h1 / sqrt(l1) = 0.1 per year of age, the
#: Gompertz slope of real logit q. The age-slope amplitude h2 = 0.01 gives
#: realistic improvement-rate spread; the cohort and noise values follow
#: the paper-size integration test.
MIXED_PARAMS = {
    "h1": 6.0, "l1": 3600.0, "h2": 0.01, "l2": 60.0,
    "c": 0.4, "s": 120.0, "sigma2": 0.01,
}
MIXED_BETA = (-3.2, -0.03)
#: seed of the fixed synthetic populations; --seed draws only their noise
POPULATION_SEED = 0

#: Fingerprint tolerances, fixed before any value was recorded. Relative
#: 1e-6 is three times the drift measured between BLAS thread counts
#: (1e-8 to 3e-7 relative in report.csv); iteration counts may move by 2
#: when that drift changes an optimizer step.
FP_REL_TOL = 1e-6
FP_ITER_TOL = 2
#: fingerprints are committed for seeds 0 .. FP_SEEDS - 1; a run's first
#: operation reads the input of seed mod FP_SEEDS, so every seed is checked
FP_SEEDS = 32
#: Fixed before any value was recorded: every logit RMSE of a forecast, the
#: held-out one of ``forecast`` and each pooled one of ``backtest``, stays
#: below it. The noise standard deviation is 0.1 on the mixed surface and
#: about 0.02 on the CBD one; a model that can represent the surface errs
#: by little more, and one that cannot errs by 1 or more.
RMSE_BOUND = 0.35


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                      # fitted model; "cbd" data also carries deaths/exposure
    ages: tuple[int, int]
    years: tuple[int, int]          # whole surface; the fit leaves out `holdout` years
    holdout: int
    backtest_args: tuple[str, ...]  # backtest flags beyond input and window
    #: forecast and backtest pairs per operation; pairs after the first
    #: forecast from the operation's fit.json again and back-test a fresh draw
    pairs_per_op: int = 1

    @property
    def train_years(self) -> tuple[int, int]:
        return self.years[0], self.years[1] - self.holdout


#: the default plan (horizons 5/10/15/20 x 10 windows) with the CBD model only
CBD_BACKTEST = ("--models", "cbd")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-paper", "mixed", (60, 89), (1947, 2016), 10, CBD_BACKTEST,
                 pairs_per_op=3),
        Workload("backtest-cbd", "cbd", (60, 89), (1947, 2016), 10, CBD_BACKTEST),
    )
}


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Inputs:
    csv_text: str          # read by fit and forecast
    backtest_csv: str      # read by backtest: always a CBD surface
    m: np.ndarray          # (years, ages) central rates of csv_text
    deaths: np.ndarray | None
    exposure: np.ndarray | None
    cbd_truth: dict | None = None      # generating CBD parameter curves
    mixed_ref_ll: float | None = None  # profile LL of the training window at
                                       # the generating mixed-model parameters


def _fmt_csv(years, ages, m, deaths=None, exposure=None) -> str:
    out = io.StringIO()
    if deaths is None:
        out.write("year,age,mx\n")
    else:
        out.write("year,age,mx,deaths,exposure\n")
    for i, t in enumerate(years):
        for j, x in enumerate(ages):
            row = f"{t},{x},{float(m[i, j])!r}"
            if deaths is not None:
                row += f",{float(deaths[i, j])!r},{float(exposure[i, j])!r}"
            out.write(row + "\n")
    return out.getvalue()


def make_inputs(w: Workload, seed: int, draw: int = 0) -> Inputs:
    """The workload's input surfaces, a pure function of (workload, seed, draw).

    (seed, draw) selects only the observation noise (Gaussian for the mixed
    model, Poisson deaths for CBD) around fixed synthetic populations,
    drawn from POPULATION_SEED, so no two draws give the same input while
    the populations stay the same.

    The backtest always reads the CBD surface, so its CBD fits run on data
    CBD can represent: with its count columns where CBD is the fitted
    model, as rates only (the CLI then synthesizes counts) where the mixed
    model is.
    """
    ages, years = _axes(w)
    backtest_csv = make_backtest_csv(w, seed, draw)
    if w.model == "cbd":
        m, deaths, exposure, truth = _cbd_surface(ages, years, seed, draw)
        return Inputs(backtest_csv, backtest_csv, m, deaths, exposure, truth)
    train = np.arange(w.train_years[0], w.train_years[1] + 1)
    mixed = _mixed_surface(ages, years, train, w.holdout, seed, draw)
    # computed here, before any timing, so the checks between timed
    # commands stay cheap
    ref = mixed_profile_loglik(logit_of_rates(mixed[: train.size]), ages, train, MIXED_PARAMS)
    return Inputs(_fmt_csv(years, ages, mixed), backtest_csv, mixed, None, None,
                  mixed_ref_ll=ref)


def make_backtest_csv(w: Workload, seed: int, draw: int) -> str:
    """The backtest's input of (workload, seed, draw): the CBD surface, with
    its count columns where CBD is the fitted model and as rates only where
    the mixed model is."""
    ages, years = _axes(w)
    m, deaths, exposure, _ = _cbd_surface(ages, years, seed, draw)
    if w.model == "cbd":
        return _fmt_csv(years, ages, m, deaths, exposure)
    return _fmt_csv(years, ages, m)


def _axes(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(w.ages[0], w.ages[1] + 1), np.arange(w.years[0], w.years[1] + 1)


def _mixed_surface(ages, years, train, holdout, seed, draw) -> np.ndarray:
    """Central rates (years, ages) drawn from the mixed model."""
    from mortcast.design import KernelParams, build_design
    from mortcast.mixed import simulate, unstack_vector

    population = np.random.default_rng(POPULATION_SEED)
    noise = np.random.default_rng([int(seed), 0, int(draw)])
    # drawn on the horizon-extended design, so the held-out years are the
    # model's own continuation of the training years
    design = build_design(ages, train, holdout)
    effects = KernelParams(**dict(MIXED_PARAMS, sigma2=1e-12))
    y = simulate(design, effects, MIXED_BETA, population)
    mean = design.T @ np.asarray(MIXED_BETA)
    grid = unstack_vector(y, years.size, ages.size)
    if grid[:, -1].mean() < grid[:, 0].mean():
        # logit q rises with age in real data. The random effects are
        # symmetric about the mean, so their mirror image is as likely a
        # draw; taking it conditions the population on rising.
        y = 2.0 * mean - y
    y = y + math.sqrt(MIXED_PARAMS["sigma2"]) * noise.standard_normal(y.size)
    return np.logaddexp(0.0, unstack_vector(y, years.size, ages.size))  # -log(1 - expit(y))


def _cbd_surface(ages, years, seed, draw):
    """(rates, deaths, exposure, generating curves) drawn from CBD with
    Poisson deaths; rates are deaths / exposure."""
    from mortcast.cbd import death_rate, linear_predictor

    population = np.random.default_rng(POPULATION_SEED)
    noise = np.random.default_rng([int(seed), 1, int(draw)])
    n = years.size
    steps = population.standard_normal((2, n - 1))
    kappa1 = -2.8 + np.cumsum(np.r_[0.0, -0.015 + 0.02 * steps[0]])
    kappa2 = 0.10 + np.cumsum(np.r_[0.0, 0.0003 + 0.002 * steps[1]])
    cohorts = np.arange(years[0] - ages[-1], years[-1] - ages[0] + 1)
    gamma3 = np.cumsum(0.01 * population.standard_normal(cohorts.size))
    gamma3 -= np.polyval(np.polyfit(cohorts, gamma3, 1), cohorts)
    rate = death_rate(linear_predictor(kappa1, kappa2, gamma3, ages, years))
    exposure = np.round(1e5 * np.exp(-0.05 * (ages - ages[0])))[None, :] * np.ones((n, 1))
    deaths = noise.poisson(exposure * rate).astype(float)
    if np.any(deaths <= 0):
        raise RuntimeError("generated a zero death count; exposures too small")
    truth = {"kappa1": kappa1.tolist(), "kappa2": kappa2.tolist(),
             "gamma3": gamma3.tolist()}
    return deaths / exposure, deaths, exposure, truth


def logit_of_rates(m: np.ndarray) -> np.ndarray:
    """logit(q) for q = 1 - exp(-m), the surface the CLI builds from mx."""
    q = -np.expm1(-m)
    return np.log(q) - np.log1p(-q)


# ------------------------------------------------- reference likelihoods


def _se(u, amp, length):
    d = u[:, None] - u[None, :]
    return amp**2 * np.exp(-d * d / (2.0 * length))


def mixed_profile_loglik(y_grid, ages, years, p) -> float:
    """Gaussian log-likelihood with beta at its GLS optimum, from the model
    definition (dense V, age-major stacking, time centred on the training
    mean); independent of the program's likelihood code."""
    n, m = y_grid.shape
    y = np.asarray(y_grid, dtype=float).T.ravel()
    ai = np.repeat(np.arange(m), n)
    ti = np.tile(np.arange(n), m)
    age = ages[ai].astype(float)
    tau = years[ti] - years.mean()
    coh = (years[ti] - ages[ai]).astype(float)
    V = (_se(age, p["h1"], p["l1"]) + np.outer(tau, tau) * _se(age, p["h2"], p["l2"])
         + _se(coh, p["c"], p["s"]))
    V[np.diag_indices_from(V)] += p["sigma2"]
    cho = scipy.linalg.cho_factor(V, lower=True)
    T = np.column_stack([np.ones_like(tau), tau])
    ViT = scipy.linalg.cho_solve(cho, T)
    Viy = scipy.linalg.cho_solve(cho, y)
    beta = np.linalg.solve(T.T @ ViT, T.T @ Viy)
    r = y - T @ beta
    quad = float(r @ scipy.linalg.cho_solve(cho, r))
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return -0.5 * (logdet + quad + y.size * math.log(2.0 * math.pi))


def cbd_poisson_loglik(truth, ages, years, D, E, included) -> float:
    """Poisson log-likelihood of the generating CBD parameters over the
    cells of the cohorts the fit kept. The training window starts in the
    surface's first year, so both cohort axes start at years[0] - ages[-1]."""
    k1 = np.asarray(truth["kappa1"])[: years.size]
    k2 = np.asarray(truth["kappa2"])[: years.size]
    g3 = np.asarray(truth["gamma3"])
    cohort = (years[:, None] - ages[None, :]) - (years[0] - ages[-1])
    eta = k1[:, None] + k2[:, None] * (ages - ages.mean())[None, :] + g3[cohort]
    mu = E * np.logaddexp(0.0, eta)
    w = np.asarray(included, dtype=bool)[cohort]
    terms = scipy.special.xlogy(D, mu) - mu - scipy.special.gammaln(D + 1.0)
    return float(np.sum(terms[w]))


# ------------------------------------------------------------- checking


class Check:
    """Collects failed checks for one operation."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FP_REL_TOL * max(1.0, abs(a), abs(b))


def check_fit(w: Workload, inputs: Inputs, out: Path, check: Check, fp: dict) -> None:
    doc = json.loads((out / "fit.json").read_text())
    ages = np.arange(w.ages[0], w.ages[1] + 1)
    years = np.arange(w.train_years[0], w.train_years[1] + 1)
    k = years.size
    ll = float(doc["loglik"])
    if w.model == "mixed":
        ref = inputs.mixed_ref_ll
        fp["fit_n_iter"] = int(doc["n_iter"])
    else:
        ref = cbd_poisson_loglik(inputs.cbd_truth, ages, years, inputs.deaths[:k],
                                 inputs.exposure[:k], doc["included"])
        fp["fit_n_iter"] = int(doc["n_sweeps"])
    check(bool(doc["converged"]), "fit did not converge")
    check(math.isfinite(ll) and ll >= ref,
          f"fit loglik {ll!r} below the generating parameters' {ref!r}")
    fp["fit_loglik"] = ll


def check_forecast(w: Workload, inputs: Inputs, out: Path, check: Check, fp: dict) -> None:
    rows = list(csv.reader((out / "forecast.csv").read_text().splitlines()))[1:]
    n_ages = w.ages[1] - w.ages[0] + 1
    check(len(rows) == w.holdout * n_ages,
          f"forecast.csv has {len(rows)} rows, expected {w.holdout * n_ages}")
    vals = np.array([[float(v) for v in r] for r in rows]) if rows else np.zeros((0, 6))
    finite = bool(np.all(np.isfinite(vals)))
    check(finite, "forecast.csv has non-finite values")
    if not rows or not finite:
        return
    year, age, mean, lo, hi = vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 4], vals[:, 5]
    check(bool(np.all((lo < mean) & (mean < hi))), "forecast interval not lo < mean < hi")
    actual = logit_of_rates(inputs.m)
    i = (year - w.years[0]).astype(int)
    j = (age - w.ages[0]).astype(int)
    ok_idx = (i >= 0) & (i < actual.shape[0]) & (j >= 0) & (j < actual.shape[1])
    check(bool(np.all(ok_idx)), "forecast rows outside the held-out window")
    if not np.all(ok_idx):
        return
    rmse = float(np.sqrt(np.mean((mean - actual[i, j]) ** 2)))
    check(rmse < RMSE_BOUND, f"held-out logit RMSE {rmse!r} >= {RMSE_BOUND}")
    fp["forecast_rmse"] = rmse


def check_backtest(w: Workload, out: Path, check: Check, fp: dict) -> None:
    doc = json.loads((out / "report.json").read_text())
    check(not doc["failures"], f"backtest excluded windows: {doc['failures'][:3]}")
    check(not any(r["failed"] for r in doc["results"]), "backtest window failed")
    for row in doc["pooled"]:
        rmse = row["rmse"]
        ok = isinstance(rmse, (int, float)) and math.isfinite(rmse) and rmse < RMSE_BOUND
        check(ok, f"pooled RMSE {row['model']} h={row['horizon']} is {rmse!r}, "
                  f"not below {RMSE_BOUND}")
        fp[f"pooled_rmse.{row['model']}.h{row['horizon']}"] = rmse


def compare_fingerprint(observed: dict, expected: dict, check: Check) -> None:
    """Compare with the committed fingerprint of this (workload, seed); a
    value with nothing committed for it fails too."""
    for key in sorted(set(observed) | set(expected)):
        got, want = observed.get(key), expected.get(key)
        if got is None or want is None:
            check(False, f"fingerprint {key}: observed {got!r}, committed {want!r}")
        elif key == "fit_n_iter":
            check(abs(int(got) - int(want)) <= FP_ITER_TOL,
                  f"fingerprint {key}: {got} vs committed {want}")
        else:
            check(_close(float(got), float(want)),
                  f"fingerprint {key}: {got!r} vs committed {want!r}")

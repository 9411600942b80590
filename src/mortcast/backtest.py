"""Rolling-window out-of-sample evaluation of both models.

For horizon h and window w the models train on all years up to
t_l + w (with t_l chosen so the ten targets end exactly at the last data
year), forecast h years ahead, and are scored on the target year's curve.
The headline number pools squared errors over all windows and ages before
taking the root; it is not a mean of per-window RMSEs.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import cbd as cbd_mod
from . import mixed as mixed_mod
from .data import MortalitySurface, split_train_test
from .design import build_design
from .errors import MortcastError

MODELS = ("mixed", "cbd")

#: what a window's fit or forecast may raise and still count as an excluded
#: window; anything else (TypeError, AttributeError, ...) is a programming
#: error and propagates
_MODEL_ERRORS = (
    MortcastError,
    np.linalg.LinAlgError,
    ValueError,
    FloatingPointError,
    RuntimeError,
)


def rmse_curve(pred, actual) -> float:
    """Root mean squared logit-scale error across one year's age curve."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError(
            f"age axes do not match: {pred.shape} vs {actual.shape}"
        )
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


@dataclass(frozen=True)
class BacktestPlan:
    """What to backtest and with which policy knobs.

    ``ages``/``years`` are optional (lo, hi) windows; when set they must
    match the surface handed to :func:`run_backtest`. ``workers`` is the
    number of worker processes (at most one per task); None means one per
    CPU the process may run on.
    """

    label: str = "dataset"
    sex: str = "total"
    ages: tuple[int, int] | None = (60, 89)
    years: tuple[int, int] | None = None
    horizons: tuple[int, ...] = (5, 10, 15, 20)
    windows: int = 10
    models: tuple[str, ...] = MODELS
    seed: int = 0
    restarts: int = 1
    workers: int | None = None

    def __post_init__(self):
        if "\r" in self.label:  # csv.writer would leave it unquoted in report.csv
            raise ValueError(f"label may not hold a carriage return, got {self.label!r}")
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError("horizons must be positive")
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError("horizons must be distinct")
        if not self.models or not set(self.models) <= set(MODELS):
            raise ValueError(f"models must be a non-empty subset of {MODELS}, "
                             f"got {self.models!r}")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"models must be distinct, got {self.models!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {self.workers}")

    def check_surface(self, surface: MortalitySurface) -> None:
        for name, window, axis in (
            ("ages", self.ages, surface.ages),
            ("years", self.years, surface.years),
        ):
            if window is not None and (
                int(axis[0]) != window[0] or int(axis[-1]) != window[1]
            ):
                raise ValueError(
                    f"plan {name} {window[0]}:{window[1]} do not match the "
                    f"surface ({int(axis[0])}:{int(axis[-1])})"
                )


@dataclass(frozen=True)
class WindowResult:
    """One (model, horizon, window) task, scored on its target year's curve.

    Tasks that share a training end share one fit: ``converged`` and
    ``n_iter`` are that fit's (BFGS iterations for mixed, Newton sweeps for
    CBD), and if it failed, every task it serves is failed with the same
    ``message`` and has neither (False, 0)."""

    model: str
    horizon: int
    window: int
    train_end: int
    target_year: int
    rmse: float
    errors: np.ndarray | None
    converged: bool = False
    n_iter: int = 0
    failed: bool = False
    message: str = ""


@dataclass
class BacktestReport:
    plan: BacktestPlan
    ages: np.ndarray
    years: np.ndarray
    results: list[WindowResult]
    pooled: dict[tuple[str, int], float]
    failures: list[str] = field(default_factory=list)


def _window_seed(plan_seed: int, model: str, train_end: int) -> int:
    ss = np.random.SeedSequence(
        entropy=plan_seed, spawn_key=(MODELS.index(model), train_end)
    )
    return int(ss.generate_state(1)[0])


def _run_fit(surface, plan, model, train_end, served):
    """Fit ``model`` once on the years up to ``train_end``, forecast to the
    largest horizon among ``served`` (its (horizon, window) tasks) and score
    every task from that forecast."""
    train, test = split_train_test(surface, train_end)
    horizon = max(h for h, _ in served)
    try:
        if model == "mixed":
            fit = mixed_mod.fit(train.y, build_design(train.ages, train.years),
                                restarts=plan.restarts,
                                seed=_window_seed(plan.seed, model, train_end))
            fc = mixed_mod.forecast(fit, horizon)
            n_iter = fit.n_iter
        else:
            fit = cbd_mod.fit_cbd(*train.counts, train.ages, train.years)
            fc = cbd_mod.forecast_cbd(fit, cbd_mod.estimate_rw(fit), horizon)
            n_iter = fit.n_sweeps
        preds = [fc.year_slice(train_end + h)[0] for h, _ in served]
    except _MODEL_ERRORS as exc:  # fit failures are reported, not fatal
        message = f"{type(exc).__name__}: {exc}"
        return [
            WindowResult(model, h, w, train_end, train_end + h, float("nan"),
                         None, failed=True, message=message)
            for h, w in served
        ]
    results = []
    for (h, w), pred in zip(served, preds):
        actual = test.y[h - 1]  # the test years start at train_end + 1
        results.append(WindowResult(
            model, h, w, train_end, train_end + h, rmse_curve(pred, actual),
            pred - actual, converged=bool(fit.converged), n_iter=int(n_iter),
        ))
    return results


def _resolve_workers(plan: BacktestPlan, n_tasks: int) -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may run on
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(plan.workers or cpus, n_tasks)


def feasibility_start(years: np.ndarray, horizon: int, windows: int) -> int:
    """First training end-year t_l for a horizon, and its feasibility check.

    Targets run t_l + h .. t_l + windows - 1 + h and must end at the last
    data year, so t_l = years[-1] - horizon - (windows - 1). At least three
    training years are required for the first window.
    """
    t_l = int(years[-1]) - horizon - (windows - 1)
    min_train = 3
    if t_l - int(years[0]) + 1 < min_train:
        raise ValueError(
            f"infeasible plan at horizon {horizon}: first training window "
            f"would end in {t_l}, violating "
            f"{t_l} - {int(years[0])} + 1 >= {min_train} training years"
        )
    return t_l


def run_backtest(plan: BacktestPlan, surface: MortalitySurface) -> BacktestReport:
    """Fit-and-score every (model, horizon, window) combination.

    Tasks that share a training end-year share one fit: each model is fit
    once per distinct training end and forecast to the largest horizon that
    window serves, and every task it serves is scored from that forecast.
    Fits are independent and run in a process pool when the plan's
    ``workers`` resolve to more than one; results sort by (model, horizon,
    window), so the report does not depend on scheduling.
    Workers inherit the caller's BLAS threads: with several workers, pin
    BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) before numpy is
    imported, as the CLI does, or the workers oversubscribe the cores.
    Windows whose fit fails are excluded from the pooled average and listed
    in ``report.failures``; windows whose fit stopped without converging
    stay in the pooled average and are flagged per result (``converged``).
    The mixed fits read ``surface.y`` and the CBD fits ``surface.counts``,
    each up to the window's training end.
    """
    plan.check_surface(surface)

    starts = {h: feasibility_start(surface.years, h, plan.windows) for h in plan.horizons}
    served: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for model in plan.models:
        for h in plan.horizons:
            for w in range(plan.windows):
                served.setdefault((model, starts[h] + w), []).append((h, w))
    tasks = [(model, end, s) for (model, end), s in served.items()]
    run = partial(_run_fit, surface, plan)
    workers = _resolve_workers(plan, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run, *zip(*tasks)))
    else:
        batches = [run(*t) for t in tasks]

    results = sorted((r for batch in batches for r in batch),
                     key=lambda r: (r.model, r.horizon, r.window))
    groups = _by_model_horizon(plan, results)
    pooled: dict[tuple[str, int], float] = {}
    failures = []
    for (model, h), rows in groups.items():
        failures += [
            f"{model} h={h} window={r.window} (train to {r.train_end}): {r.message}"
            for r in rows if r.failed
        ]
        errs = [r.errors for r in rows if not r.failed]
        pooled[(model, h)] = (float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))
                              if errs else float("nan"))
    return BacktestReport(
        plan=plan,
        ages=surface.ages,
        years=surface.years,
        results=results,
        pooled=pooled,
        failures=failures,
    )


def _by_model_horizon(plan, results) -> dict[tuple[str, int], list[WindowResult]]:
    """Results grouped by (model, horizon), keys in plan order, each group
    in the order of ``results``."""
    groups = {(m, h): [] for m in plan.models for h in plan.horizons}
    for r in results:
        groups[(r.model, r.horizon)].append(r)
    return groups


def emit_report(report: BacktestReport, fmt: str) -> str:
    """Render a report as ``csv``, ``json`` or ``markdown-table`` text.

    Ordering is deterministic: rows sort by (model, horizon, window) with
    pooled rows (window "all") closing each horizon block.
    """
    emit = {"csv": _emit_csv, "json": _emit_json, "markdown-table": _emit_markdown}
    if fmt not in emit:
        raise ValueError(f"unknown report format {fmt!r}")
    return emit[fmt](report)


def _emit_csv(report: BacktestReport) -> str:
    """csv.writer rows: a label holding a comma, quote or newline is quoted."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["model", "country", "sex", "horizon", "window", "rmse"])
    plan = report.plan
    groups = _by_model_horizon(plan, report.results)
    for model, h in sorted(groups):
        prefix = [model, plan.label, plan.sex, h]
        for r in groups[(model, h)]:
            rows.writerow([*prefix, r.window, float(r.rmse)])
        rows.writerow([*prefix, "all", float(report.pooled[(model, h)])])
    return out.getvalue()


#: left out of report.json: the report's own ages/years stand for the plan's,
#: workers do not change results, and ``rmse`` summarizes the per-age errors
_NOT_IN_JSON = ("ages", "years", "workers", "errors")


def _json_row(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name not in _NOT_IN_JSON}


def _emit_json(report: BacktestReport) -> str:
    import json

    results = [_json_row(r) for r in report.results]
    for row in results:
        if row["failed"]:
            row.update(rmse=None, converged=None, n_iter=None)
    doc = {
        "plan": _json_row(report.plan),
        "ages": [int(report.ages[0]), int(report.ages[-1])],
        "years": [int(report.years[0]), int(report.years[-1])],
        "results": results,
        # a pooled RMSE is NaN when every window failed, and JSON has no NaN
        "pooled": [{"model": model, "horizon": h, "rmse": v if np.isfinite(v) else None}
                   for (model, h), v in sorted(report.pooled.items())],
        "failures": report.failures,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_markdown(report: BacktestReport) -> str:
    """Pooled RMSE table, one row per horizon, one column per model;
    row minima are bolded."""
    plan = report.plan
    models = sorted(plan.models)
    out = io.StringIO()
    out.write(f"Pooled rolling-window RMSE: {plan.label} ({plan.sex})\n\n")
    out.write("| horizon | " + " | ".join(models) + " |\n")
    out.write("|---" * (len(models) + 1) + "|\n")
    for h in sorted(plan.horizons):
        vals = {m: report.pooled[(m, h)] for m in models}
        finite = {m: v for m, v in vals.items() if np.isfinite(v)}
        best = min(finite, key=finite.get) if finite else None
        cells = []
        for m in models:
            txt = f"{vals[m]:.4f}" if np.isfinite(vals[m]) else "failed"
            cells.append(f"**{txt}**" if m == best else txt)
        out.write(f"| {h} | " + " | ".join(cells) + " |\n")
    if report.failures:
        out.write("\nExcluded windows:\n")
        for f in report.failures:
            out.write(f"- {f}\n")
    unconverged = [r for r in report.results if not (r.failed or r.converged)]
    if unconverged:
        out.write("\nNon-converged windows (kept in the pooled RMSE):\n")
        for r in unconverged:
            unit = "sweeps" if r.model == "cbd" else "iterations"
            out.write(f"- {r.model} h={r.horizon} window={r.window} "
                      f"(train to {r.train_end}): stopped after {r.n_iter} {unit}\n")
    return out.getvalue()

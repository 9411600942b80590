"""JSON fit artifacts: enough state to reproduce forecasts without refitting.

A mixed-model artifact stores the fitted hyperparameters plus the exact
training window and observations. Loading evaluates the model at those
hyperparameters once (one projection and one factorization, no optimizer
run), and the loaded fit derives its effects and forecasts from that
evaluation, as the fit did. A CBD artifact stores the parameter curves
directly. Floats serialize with round-trip precision.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cbd import CbdFit
from .data import cohort_labels
from .design import KernelParams, build_design
from .mixed import MixedFit, _evaluate, stack_grid, unstack_vector

SCHEMA_VERSION = 1


def _window(ages, years) -> dict:
    return {
        "ages": [int(ages[0]), int(ages[-1])],
        "years": [int(years[0]), int(years[-1])],
    }


def _mixed_to_dict(fit: MixedFit) -> dict:
    d = fit.design
    y_grid = unstack_vector(fit.y, d.n_train, d.n_ages)
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "mixed",
        "window": _window(d.ages, d.train_years),
        "params": {name: getattr(fit.params, name) for name in KernelParams.NAMES},
        "beta": fit.fixed.beta.tolist(),
        "cov_beta": fit.fixed.cov_beta.tolist(),
        "gamma1": fit.random.gamma1.tolist(),
        "var_gamma1": np.diag(fit.random.cov1).tolist(),
        "gamma2": fit.random.gamma2.tolist(),
        "var_gamma2": np.diag(fit.random.cov2).tolist(),
        "gamma3": fit.random.gamma3.tolist(),
        "var_gamma3": np.diag(fit.random.cov3).tolist(),
        "loglik": fit.loglik,
        "loglik_trace": fit.loglik_trace.tolist(),
        "converged": fit.converged,
        "n_iter": fit.n_iter,
        "sigma2_boundary": fit.sigma2_boundary,
        "y": y_grid.tolist(),
    }


def _cbd_to_dict(fit: CbdFit) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "cbd",
        "window": _window(fit.ages, fit.years),
        "kappa1": fit.kappa1.tolist(),
        "kappa2": fit.kappa2.tolist(),
        "gamma3": fit.gamma3.tolist(),
        "included": fit.included.astype(int).tolist(),
        "x_bar": fit.x_bar,
        "loglik": fit.loglik,
        "loglik_trace": fit.loglik_trace.tolist(),
        "constraint_residuals": list(fit.constraint_residuals),
        "converged": fit.converged,
        "n_sweeps": fit.n_sweeps,
    }


def _dict_to_mixed(doc: dict, ages, years) -> MixedFit:
    y = stack_grid(np.asarray(doc["y"], dtype=float))
    return MixedFit(
        evaluation=_evaluate(y, build_design(ages, years),
                             KernelParams(*(doc["params"][n] for n in KernelParams.NAMES))),
        loglik_trace=np.asarray(doc["loglik_trace"], dtype=float),
        converged=bool(doc["converged"]),
        n_iter=int(doc["n_iter"]),
    )


def _dict_to_cbd(doc: dict, ages, years) -> CbdFit:
    return CbdFit(
        ages=ages,
        years=years,
        kappa1=np.asarray(doc["kappa1"], dtype=float),
        kappa2=np.asarray(doc["kappa2"], dtype=float),
        gamma3=np.asarray(doc["gamma3"], dtype=float),
        cohorts=cohort_labels(ages, years),
        included=np.asarray(doc["included"], dtype=bool),
        x_bar=float(doc["x_bar"]),
        loglik=float(doc["loglik"]),
        loglik_trace=np.asarray(doc["loglik_trace"], dtype=float),
        constraint_residuals=tuple(doc["constraint_residuals"]),
        converged=bool(doc["converged"]),
        n_sweeps=int(doc["n_sweeps"]),
    )


def save_fit(fit: MixedFit | CbdFit, path) -> None:
    """Write either model's fit as its JSON artifact."""
    if isinstance(fit, MixedFit):
        doc = _mixed_to_dict(fit)
    elif isinstance(fit, CbdFit):
        doc = _cbd_to_dict(fit)
    else:
        raise TypeError(f"unsupported fit type {type(fit).__name__}")
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class _Object(dict):  # a JSON object of an artifact: a missing key is a ValueError
    def __missing__(self, key):
        raise ValueError(f"fit artifact has no {key!r} key")


def load_fit(path) -> MixedFit | CbdFit:
    """Rebuild a fit object from its JSON artifact (``ValueError`` if malformed)."""
    doc = json.loads(Path(path).read_text(), object_hook=_Object)
    if not isinstance(doc, dict):
        raise ValueError(f"a fit artifact is a JSON object, not {type(doc).__name__}")
    model = doc.get("model")
    if model not in ("mixed", "cbd"):
        raise ValueError(f"unknown or missing model tag {model!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"fit artifact schema_version {doc['schema_version']!r} is not 1")
    ages, years = (np.arange(int(lo), int(hi) + 1) for lo, hi in
                   (doc["window"]["ages"], doc["window"]["years"]))
    return (_dict_to_mixed if model == "mixed" else _dict_to_cbd)(doc, ages, years)

"""JSON fit artifacts: enough state to reproduce forecasts without refitting.

A mixed-model artifact stores the fitted hyperparameters plus the exact
training window and observations. Loading evaluates the model at those
hyperparameters once (one projection and one factorization, no optimizer
run), and the loaded fit derives its effects and forecasts from that
evaluation, as the fit did. A CBD artifact stores the parameter curves;
loading derives ``x_bar`` and ``included`` from the window, as the fit did,
and does not read them. Floats serialize with round-trip precision.
"""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import _axis, cohort_labels

if TYPE_CHECKING:
    from .cbd import CbdFit
    from .mixed import MixedFit

SCHEMA_VERSION = 1


def _window(ages, years) -> dict:
    return {
        "ages": [int(ages[0]), int(ages[-1])],
        "years": [int(years[0]), int(years[-1])],
    }


def _mixed_to_dict(fit: MixedFit) -> dict:
    from .mixed import unstack_vector
    d = fit.design
    y_grid = unstack_vector(fit.y, d.n_train, d.n_ages)
    return {
        "schema_version": SCHEMA_VERSION,
        "model": fit.MODEL,
        "window": _window(d.ages, d.train_years),
        "params": {name: getattr(fit.params, name) for name in fit.params.NAMES},
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
        "model": fit.MODEL,
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


def _read(doc, key, *shape, kind=float):
    """``doc[key]`` checked as nested lists of ``shape`` (None: any length but
    0) of ``kind`` values (a float may be a JSON integer, an int is no true or
    false, a dict is any JSON object), else a ``ValueError`` naming the key."""
    value = doc[key]
    if not _fits(value, shape, {float: (int, float), dict: (_Object,)}.get(kind, (kind,))):
        what = kind.__name__ + "".join(f"[{n or '1+'}]" for n in shape)
        raise ValueError(f"fit artifact {key} {reprlib.repr(value)} is not {what}")
    return value


def _fits(value, shape, types) -> bool:
    if not shape:  # JSON's NaN and Infinity parse as floats, and no fit holds them
        return type(value) in types and (type(value) is not float or math.isfinite(value))
    return (type(value) is list and 0 < len(value) == (shape[0] or len(value))
            and all(_fits(v, shape[1:], types) for v in value))


def _dict_to_mixed(doc: dict, ages, years) -> MixedFit:
    from .design import KernelParams, build_design
    from .mixed import MixedFit, _evaluate, stack_grid
    params = _read(doc, "params", kind=dict)
    shape = years.stop - years.start, ages.stop - ages.start  # len() fails past 2**63
    y = stack_grid(np.asarray(_read(doc, "y", *shape), dtype=float))
    return MixedFit(
        evaluation=_evaluate(y, build_design(ages, years),
                             KernelParams(*(_read(params, n) for n in KernelParams.NAMES))),
        loglik_trace=np.asarray(_read(doc, "loglik_trace", None), dtype=float),
        converged=_read(doc, "converged", kind=bool),
        n_iter=_read(doc, "n_iter", kind=int),
    )


def _dict_to_cbd(doc: dict, ages, years) -> CbdFit:
    from .cbd import CbdFit, fitted_cohorts
    n, m = years.stop - years.start, ages.stop - ages.start  # len() fails past 2**63
    return CbdFit(  # the curves' lengths check the window before its arrays are built
        kappa1=np.asarray(_read(doc, "kappa1", n), dtype=float),
        kappa2=np.asarray(_read(doc, "kappa2", n), dtype=float),
        gamma3=np.asarray(_read(doc, "gamma3", n + m - 1), dtype=float),
        ages=np.array(ages),
        years=np.array(years),
        cohorts=cohort_labels(ages, years),
        included=fitted_cohorts(np.array(ages), np.array(years)),
        x_bar=float(np.mean(ages)),
        loglik=float(_read(doc, "loglik")),
        loglik_trace=np.asarray(_read(doc, "loglik_trace", None), dtype=float),
        constraint_residuals=tuple(_read(doc, "constraint_residuals", 2)),
        converged=_read(doc, "converged", kind=bool),
        n_sweeps=_read(doc, "n_sweeps", kind=int),
    )


def save_fit(fit: MixedFit | CbdFit, path) -> None:
    """Write either model's fit as its JSON artifact."""
    # keyed on the fit's own tag, so a save never imports the other model
    doc = {"mixed": _mixed_to_dict, "cbd": _cbd_to_dict}[fit.MODEL](fit)
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
    if _read(doc, "schema_version", kind=int) != SCHEMA_VERSION:
        raise ValueError(f"fit artifact schema_version {doc['schema_version']!r} is not 1")
    window = _read(doc, "window", kind=dict)
    ages, years = (_axis(_read(window, axis, 2, kind=int), axis) for axis in ("ages", "years"))
    return (_dict_to_mixed if model == "mixed" else _dict_to_cbd)(doc, ages, years)

"""The projected likelihood engine against the dense oracles, in the regimes
where a low-rank route is most likely to lose accuracy, and a guard that
no N x N matrix is built on the fit/forecast/posterior path."""

import sys

import numpy as np
import pytest

from oracles import dense_gls, dense_loglik, joint_conditioning, universal_kriging

import mortcast.design as design_mod
from mortcast.artifacts import load_fit, save_fit
from mortcast.backtest import BacktestPlan, run_backtest
from mortcast.data import MortalitySurface, inverse_logit
from mortcast.design import KernelParams, assemble_V, build_covariances, build_design
from mortcast.mixed import (
    blup,
    extended_random_effects,
    fit,
    fitted_surface,
    forecast,
    gls_beta,
    grad_loglik,
    log_likelihood,
    simulate,
    stack_grid,
    unstack_vector,
)

BASE = dict(h1=0.4, l1=16.0, h2=0.05, l2=16.0, c=0.25, s=30.0, sigma2=0.04)

#: name -> (ages, train years, parameter overrides)
REGIMES = {
    # sigma2 near its lower boundary: V's condition number is about 1e7
    "sigma2-1e-7": (range(60, 65), range(1995, 2010), dict(sigma2=1e-7)),
    # every kernel numerically rank one
    "long-lengths": (range(60, 66), range(1990, 2005),
                     dict(l1=1e6, l2=1e7, s=1e6)),
    "one-age": ([70], range(1990, 2002), {}),
    "two-ages": ([70, 71], range(1990, 2000), {}),
    "two-years": (range(60, 68), [2000, 2001], {}),
    # the paper's geometry, N = 1800, at the benchmark surface's scale
    "paper-size": (range(60, 90), range(1947, 2007),
                   dict(h1=0.5, l1=300.0, h2=0.01, l2=300.0, c=0.1, s=40.0,
                        sigma2=0.002)),
}

#: relative tolerances against the dense route. The dense oracles invert V
#: explicitly, so their own error grows with V's condition number; the
#: sigma2 = 1e-7 regime gets looser bounds for that reason alone.
RTOL = {"sigma2-1e-7": 1e-6}
RTOL_DEFAULT = 1e-8


def dense_gradient(y, beta, params, design):
    """-1/2 tr(V^-1 dV) + 1/2 a' dV a per parameter, with a = V^-1 r, from an
    explicit inverse and dense dV = Z dK Z'."""
    Vinv = np.linalg.inv(assemble_V(params, design))
    a = Vinv @ (y - design.T @ beta)
    p = params
    pairs = ((design.Z1, design.ages, p.h1, p.l1),
             (design.Z2, design.ages, p.h2, p.l2),
             (design.Z3, design.cohort_index, p.c, p.s))
    g = np.empty(7)
    for slot, ((Z, labels, amp, length), K) in enumerate(
            zip(pairs, build_covariances(params, design))):
        d2 = (labels[:, None] - labels[None, :]).astype(float) ** 2
        for j, dK in enumerate((2.0 / amp * K, K * d2 / (2.0 * length**2))):
            dV = Z @ dK @ Z.T
            g[2 * slot + j] = -0.5 * np.sum(Vinv * dV) + 0.5 * a @ dV @ a
    g[6] = -0.5 * np.trace(Vinv) + 0.5 * a @ a
    return g


def dense_forecast(y, beta, params, design, horizon):
    """Forecast mean by joint conditioning on the extended design, and the
    per-cell predictive variance by dense universal kriging."""
    oracle = joint_conditioning(y, beta, params, design, horizon=horizon)
    dh = build_design(design.ages, design.train_years, horizon)
    mean = (dh.T @ beta + dh.Z1 @ oracle["gamma1"] + dh.Z2 @ oracle["gamma2"]
            + dh.Z3 @ oracle["gamma3"])
    return mean, universal_kriging(y, params, design, horizon)[1], oracle


def _close(actual, expected, rtol, name):
    # relative to the largest entry, and absolute below 1: near-zero entries
    # of a vector are held to the same error as its large ones, and a block
    # that is zero in exact arithmetic (gamma1 with a single age) to rtol
    scale = max(float(np.max(np.abs(expected))), 1.0)
    err = float(np.max(np.abs(np.asarray(actual) - expected)))
    assert err <= rtol * scale, f"{name}: max error {err:.3g} vs scale {scale:.3g}"


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_engine_matches_dense_oracles(regime, rng):
    ages, years, overrides = REGIMES[regime]
    rtol = RTOL.get(regime, RTOL_DEFAULT)
    d = build_design(ages, years)
    p = KernelParams(**{**BASE, **overrides})
    y = simulate(d, p, [-3.0, -0.03], rng)

    beta = gls_beta(y, p, d)
    _close(beta, dense_gls(y, p, d), rtol, "GLS beta")
    _close(log_likelihood(y, beta, p, d), dense_loglik(y, beta, p, d), rtol, "LL")
    g, g_dense = grad_loglik(y, beta, p, d), dense_gradient(y, beta, p, d)
    for i, name in enumerate(KernelParams.NAMES):
        _close(g[i], g_dense[i], rtol, f"d LL / d {name}")

    f = fit(y, d, init=p, restarts=1, free=np.zeros(7, dtype=bool))
    horizon = 3
    mean, var, oracle = dense_forecast(y, f.fixed.beta, p, d, horizon)
    re = blup(y, f)
    for key in ("gamma1", "cov1", "gamma2", "cov2"):
        _close(getattr(re, key), oracle[key], rtol, f"BLUP {key}")
    ext = extended_random_effects(f, horizon)
    _close(ext.gamma3, oracle["gamma3"], rtol, "extended gamma3")
    _close(ext.cov3, oracle["cov3"], rtol, "extended cov3")
    fc = forecast(f, horizon)
    fitted_mean, fitted_var = fitted_surface(f)
    _close(stack_grid(np.vstack([fitted_mean, fc.mean])), mean, rtol, "mean")
    _close(stack_grid(np.vstack([fitted_var, fc.variance])), var, rtol, "variance")


def test_no_dense_V_on_the_hot_path(rng, tmp_path, monkeypatch):
    """fit, forecast, blup, save/load and a mixed backtest window never
    assemble V or factor a matrix with N rows."""

    def no_dense_V(*args, **kwargs):
        raise AssertionError("dense V assembled on the hot path")

    real_chol = design_mod.cholesky_with_jitter
    sizes = []

    def sized_chol(A):
        sizes.append(A.shape[0])
        return real_chol(A)

    for name, mod in list(sys.modules.items()):
        if name == "mortcast" or name.startswith("mortcast."):
            for attr, fn in (("assemble_V", no_dense_V),
                             ("cholesky_with_jitter", sized_chol)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, fn)

    d = build_design(range(60, 66), range(1990, 2010))
    true = KernelParams(**BASE)
    y = simulate(d, true, [-3.0, -0.03], rng)
    q = d.Z1.shape[1] + d.Z2.shape[1] + d.Z3.shape[1]
    f = fit(y, d, restarts=1)
    forecast(f, 5)
    blup(y, f)
    save_fit(f, tmp_path / "fit.json")
    load_fit(tmp_path / "fit.json")

    grid = unstack_vector(y, d.n_train, d.n_ages)
    surface = MortalitySurface(ages=d.ages, years=d.train_years, q=inverse_logit(grid))
    plan = BacktestPlan(ages=(60, 65), horizons=(2,), windows=1,
                        models=("mixed",), restarts=1, workers=1)
    report = run_backtest(plan, surface)
    assert not any(r.failed for r in report.results)
    # Z1 1 = Z3 1, so the projected matrix has at most q - 1 rows
    assert sizes and max(sizes) < q < y.size

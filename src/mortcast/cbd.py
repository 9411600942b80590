"""Three-factor CBD baseline: Poisson fitting and random-walk forecasting.

The model puts logit(q_{x,t}) = kappa1_t + kappa2_t * (x - x_bar) +
gamma3_{t-x}. Death counts are Poisson with mean E * m(eta) where
m(eta) = log(1 + exp(eta)), and the parameters are estimated by blockwise
Newton ascent of the Poisson log-likelihood. The cohort series is pinned
down by the two identifiability constraints sum(gamma) = 0 and
sum((t-x) * gamma) = 0 over the fitted cohort set, re-imposed after every
sweep through the likelihood-invariant reparameterization.

Forecasting is the classical two-step approach: a bivariate random walk
with drift for (kappa1, kappa2) and a univariate one for the cohort
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    central_to_initial,
    checked_counts,
    cohort_cols,
    cohort_labels,
    initial_to_central,
    inverse_logit,
    logit,
)
from .forecasts import Forecast

#: cohorts observed in fewer cells than this are dropped from the fit
MIN_COHORT_CELLS = 3
#: sweeps stop once an accepted sweep gains at most TOL * (1 + |LL|)
TOL = 1e-8
#: flat exposure of counts synthesized from rates: the Poisson LL is then
#: E * sum(m log mu - mu) + const, so the level cannot move its maximum
SYNTH_EXPOSURE = 1e5


@dataclass(frozen=True)
class CbdFit:
    """Fitted CBD parameter curves and fit metadata.

    ``gamma3`` spans the full cohort axis ``cohorts``; entries outside the
    fitted set (``included`` False, sparse corner cohorts) are 0 by
    convention and their cells carry no likelihood weight.
    """

    ages: np.ndarray
    years: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    gamma3: np.ndarray
    cohorts: np.ndarray
    included: np.ndarray
    x_bar: float
    loglik: float
    loglik_trace: np.ndarray
    constraint_residuals: tuple[float, float]
    converged: bool
    n_sweeps: int


@dataclass(frozen=True)
class RwDrift:
    """Random-walk-with-drift estimates for the CBD parameter series.

    ``d`` and ``V`` are the drift and difference covariance of
    (kappa1, kappa2); ``mu`` and ``var_dgamma`` are the drift and
    difference variance of the cohort series.
    """

    d: np.ndarray
    V: np.ndarray
    mu: float
    var_dgamma: float


def linear_predictor(kappa1, kappa2, gamma3, ages, years, cohorts=None) -> np.ndarray:
    """(n, m) grid of eta = kappa1_t + kappa2_t (x - x_bar) + gamma3_{t-x}."""
    ages = np.asarray(ages, dtype=int)
    years = np.asarray(years, dtype=int)
    if cohorts is None:
        cohorts = cohort_labels(ages, years)
    cols = cohort_cols(ages, years, cohorts)
    w = ages - float(np.mean(ages))
    return (
        np.asarray(kappa1)[:, None]
        + np.asarray(kappa2)[:, None] * w[None, :]
        + np.asarray(gamma3)[cols]
    )


def death_rate(eta) -> np.ndarray:
    """Central rate implied by the logit-scale predictor: log(1 + exp(eta))."""
    return np.logaddexp(0.0, eta)


def cbd_poisson_loglik(
    kappa1, kappa2, gamma3, ages, years, D, E, weights=None
) -> float:
    """Poisson log-likelihood sum of D log(E m) - E m - log(D!).

    ``weights`` (0/1 per cell) drops cells of excluded cohorts; log(D!) is
    evaluated with log-gamma so non-integer synthesized counts are fine.
    """
    D, E = checked_counts(D, E, ages, years)
    eta = linear_predictor(kappa1, kappa2, gamma3, ages, years)
    if not np.all(np.isfinite(eta)):
        raise ValueError("non-finite linear predictor")
    w = 1.0 if weights is None else np.asarray(weights, dtype=float)
    log_factorials = np.sum(w * _log_factorial(D))
    return _poisson_loglik(death_rate(eta), w * D, w * E, log_factorials)


def _log_factorial(D) -> np.ndarray:
    """log(D!) = lgamma(D + 1) per cell; D need not be an integer."""
    D1 = np.asarray(D, dtype=float) + 1.0
    lg = map(math.lgamma, D1.ravel().tolist())
    return np.fromiter(lg, float, D1.size).reshape(D1.shape)


def _poisson_loglik(rate, wD, wE, log_factorials) -> float:
    """Weighted Poisson log-likelihood from the cells' ``death_rate`` and
    weighted counts and exposures; ``log_factorials`` is the weighted sum
    of log(D!), constant per fit.

    D log(mu) is taken as 0 where the weighted count is 0, as
    lim_{D -> 0} D log(mu); that includes excluded cells, where mu = 0.
    """
    mu = wE * rate
    with np.errstate(divide="ignore"):  # mu = 0 under a count: LL = -inf, rejected
        log_mu = np.log(mu, out=np.zeros_like(mu), where=wD != 0)
    return float(np.sum(wD * log_mu - mu) - log_factorials)


def transform_parameters(kappa1, kappa2, gamma3, phi1, phi2, ages, years):
    """The identifiability map leaving every fitted rate unchanged.

    (kappa1_t, kappa2_t, gamma_{t-x}) -> (kappa1_t + (phi1 + phi2 (t - x_bar)),
    kappa2_t - phi2, gamma_{t-x} - (phi1 + phi2 (t - x))).
    """
    ages = np.asarray(ages, dtype=int)
    years = np.asarray(years, dtype=int)
    cohorts = cohort_labels(ages, years)
    x_bar = float(np.mean(ages))
    k1 = np.asarray(kappa1, dtype=float) + (phi1 + phi2 * (years - x_bar))
    k2 = np.asarray(kappa2, dtype=float) - phi2
    g3 = np.asarray(gamma3, dtype=float) - (phi1 + phi2 * cohorts)
    return k1, k2, g3


def _cell_terms(eta, D, E):
    """The cells' ``death_rate`` m and the per-cell first/second
    derivatives of the Poisson LL wrt eta, all from one evaluation of m.

    U = D sigma/m - E sigma, H = D sigma'/m - E sigma' - D (sigma/m)^2;
    the ratios tend to 1 as eta -> -inf, substituted directly below the
    underflow point. H < 0 everywhere, so Newton steps are well defined.
    Returns (m, U, H); m is what :func:`_poisson_loglik` reads.
    """
    rate = death_rate(eta)
    m = np.maximum(rate, 1e-300)
    sig = inverse_logit(eta)
    dsig = sig * (1.0 - sig)
    low = eta < -30.0
    r1 = np.where(low, 1.0, sig / m)
    r2 = np.where(low, 1.0, dsig / m)
    U = D * r1 - E * sig
    H = D * r2 - E * dsig - D * r1**2
    return rate, U, H


def _initial_curves(D, E, w):
    m_hat = np.clip(D / E, 1e-10, None)
    q_hat = np.clip(central_to_initial(m_hat), 1e-12, 1.0 - 1e-12)
    y_hat = logit(q_hat)
    kappa1 = y_hat.mean(axis=1)
    kappa2 = (y_hat * w).sum(axis=1) / float(w @ w)
    return kappa1, kappa2


def _apply_constraints(kappa1, kappa2, gamma3, included, cohorts, ages, years):
    """Regress gamma on (1, cohort) over the fitted set and absorb the line
    into the kappa curves by :func:`transform_parameters`; excluded cohorts
    stay at 0. Returns the new (kappa1, kappa2, gamma3)."""
    X = np.column_stack([np.ones(int(included.sum())), cohorts[included]])
    phi, *_ = np.linalg.lstsq(X, gamma3[included], rcond=None)
    k1, k2, g3 = transform_parameters(kappa1, kappa2, gamma3, phi[0], phi[1], ages, years)
    return k1, k2, np.where(included, g3, 0.0)


def fit_cbd(
    D,
    E,
    ages,
    years,
    max_sweeps: int = 1000,
) -> CbdFit:
    """Maximize the Poisson log-likelihood by blockwise Newton sweeps.

    Each sweep takes a joint Newton step on (kappa1_t, kappa2_t) for every
    year, then a Newton step on every fitted gamma3 coordinate (blocks are
    separable given the others), then re-imposes the two cohort constraints
    through the likelihood-invariant reparameterization. Cohorts observed
    in fewer than ``MIN_COHORT_CELLS`` cells are excluded: their cells get
    zero likelihood weight and their gamma stays 0. A sweep that fails to
    improve the likelihood is retried with halved Newton steps.

    Every point is evaluated by one cell kernel (:func:`_cell_terms`),
    which takes ``death_rate`` once and returns both what the likelihood
    check reads and the cell derivatives. An accepted point's terms carry
    over from its likelihood check into the next sweep's (kappa1, kappa2)
    step, which damped retries reuse, so each try of a sweep evaluates two
    points: after the kappa step and after the constraints.
    """
    ages = np.asarray(ages, dtype=int)
    years = np.asarray(years, dtype=int)
    D, E = checked_counts(D, E, ages, years)

    cohorts = cohort_labels(ages, years)
    cols = cohort_cols(ages, years, cohorts)
    counts = np.bincount(cols.ravel(), minlength=cohorts.size)
    included = counts >= MIN_COHORT_CELLS
    if not np.any(included):
        raise ValueError(
            f"no cohort reaches {MIN_COHORT_CELLS} observed cells; grid too small"
        )
    w = included[cols].astype(float)
    wD, wE = w * D, w * E
    xw = ages - float(np.mean(ages))
    flat_cols = cols.ravel()

    kappa1, kappa2 = _initial_curves(D, E, xw)
    gamma3 = np.zeros(cohorts.size)

    log_factorials = np.sum(w * _log_factorial(D))

    def evaluate(k1, k2, g3):
        """death_rate and the weighted cell derivatives at one point."""
        eta = k1[:, None] + k2[:, None] * xw[None, :] + g3[cols]
        rate, U, H = _cell_terms(eta, wD, wE)
        return rate, w * U, w * H

    def ll_of(rate):
        return _poisson_loglik(rate, wD, wE, log_factorials)

    rate, wU, wH = evaluate(kappa1, kappa2, gamma3)
    ll = ll_of(rate)
    trace = [ll]
    converged = False
    sweeps = 0

    while sweeps < max_sweeps:
        sweeps += 1
        # joint 2x2 Newton step per year for (kappa1_t, kappa2_t) from the
        # accepted point's cell terms, kept from its likelihood check; the
        # per-year Hessian blocks are negative definite when the year has
        # weighted cells at two or more ages. A year whose weighted cells
        # sit at a single age (possible on very narrow grids) leaves the
        # pair unidentified along a ridge; move kappa1 alone there, which
        # fixes the identified combination.
        g1 = wU.sum(axis=1)
        g2 = (wU * xw).sum(axis=1)
        h11 = wH.sum(axis=1)
        h12 = (wH * xw).sum(axis=1)
        h22 = (wH * xw**2).sum(axis=1)
        det = h11 * h22 - h12**2
        full_rank = np.abs(det) > 1e-12 * (np.abs(h11 * h22) + 1e-300)
        det_safe = np.where(full_rank, det, 1.0)
        dk1 = np.where(full_rank, -(h22 * g1 - h12 * g2) / det_safe, -g1 / h11)
        dk2 = np.where(full_rank, -(h11 * g2 - h12 * g1) / det_safe, 0.0)
        accepted = False
        damping = 1.0
        for _ in range(12):
            k1 = kappa1 + damping * dk1
            k2 = kappa2 + damping * dk2
            g3 = gamma3.copy()
            _, tU, tH = evaluate(k1, k2, g3)
            gsum = np.bincount(flat_cols, weights=tU.ravel(), minlength=cohorts.size)
            hsum = np.bincount(flat_cols, weights=tH.ravel(), minlength=cohorts.size)
            g3[included] += damping * (-gsum[included] / hsum[included])

            k1, k2, g3 = _apply_constraints(k1, k2, g3, included, cohorts, ages, years)
            rate, tU, tH = evaluate(k1, k2, g3)
            ll_new = ll_of(rate)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-9:
                accepted = True
                break
            damping *= 0.5
        if not accepted:
            break
        kappa1, kappa2, gamma3, wU, wH = k1, k2, g3, tU, tH
        dll = ll_new - ll
        ll = ll_new
        trace.append(ll)
        if abs(dll) <= TOL * (1.0 + abs(ll)):
            converged = True
            break

    cs = cohorts[included].astype(float)
    residuals = (
        float(np.sum(gamma3[included])),
        float(np.sum(cs * gamma3[included])),
    )
    return CbdFit(
        ages=ages,
        years=years,
        kappa1=kappa1,
        kappa2=kappa2,
        gamma3=gamma3,
        cohorts=cohorts,
        included=included,
        x_bar=float(np.mean(ages)),
        loglik=ll,
        loglik_trace=np.asarray(trace),
        constraint_residuals=residuals,
        converged=converged,
        n_sweeps=sweeps,
    )


def fitted_logit(fit: CbdFit) -> np.ndarray:
    """In-sample logit-rate grid from the fitted parameter curves.

    Cells of excluded cohorts use gamma = 0; they were not part of the fit.
    """
    return linear_predictor(
        fit.kappa1, fit.kappa2, fit.gamma3, fit.ages, fit.years, fit.cohorts
    )


def estimate_rw(fit: CbdFit, divisor: str = "n") -> RwDrift:
    """Random-walk-with-drift estimates from the fitted parameter series.

    ``d`` and ``V`` are the mean and (centered) mean outer product of the
    first differences of (kappa1, kappa2); ``mu``/``var_dgamma`` are the
    analogues for the cohort series over its fitted range. ``divisor="n"``
    averages over the number of differences as the expectation notation
    reads; ``"n-1"`` switches to the unbiased denominator.
    """
    if divisor not in ("n", "n-1"):
        raise ValueError(f"divisor must be 'n' or 'n-1', got {divisor!r}")
    if fit.years.size < 3:
        raise ValueError("need at least 3 fitted years to estimate the random walk")
    ddof = 0 if divisor == "n" else 1
    dk = np.column_stack([np.diff(fit.kappa1), np.diff(fit.kappa2)])
    d = dk.mean(axis=0)
    centered = dk - d
    V = (centered.T @ centered) / (dk.shape[0] - ddof)

    g = fit.gamma3[fit.included]
    if g.size < 2:
        raise ValueError("fitted cohort series too short for drift estimation")
    dg = np.diff(g)
    mu = float(dg.mean())
    var_dgamma = float(np.sum((dg - mu) ** 2) / max(dg.size - ddof, 1))
    return RwDrift(d=d, V=V, mu=mu, var_dgamma=var_dgamma)


def forecast_cbd(
    fit: CbdFit, drift: RwDrift, horizon: int, alpha: float = 0.05
) -> Forecast:
    """Extrapolate the parameter curves h years ahead.

    kappa means move by the drift each year with Var = (steps ahead) * V
    mapped through [1, x - x_bar]. Cohorts beyond the last fitted one take
    the univariate recursion from the last fitted cohort value, stepping
    over the sparse excluded labels, and contribute (extrapolated steps) *
    var_dgamma to the cell variance. ``alpha`` is unread; a band's level is
    chosen by ``Forecast.interval``.
    """
    if horizon < 1:
        raise ValueError("forecast horizon must be >= 1")
    steps = np.arange(1, horizon + 1)
    years_fc = fit.years[-1] + steps

    # cohort axis extended to the youngest forecast cohort
    last_fitted = int(fit.cohorts[fit.included][-1])
    gamma_base = float(fit.gamma3[fit.included][-1])
    cohorts = np.arange(fit.cohorts[0], fit.cohorts[-1] + horizon + 1)
    ahead = np.maximum(cohorts - last_fitted, 0)
    fitted = np.append(fit.gamma3, np.zeros(horizon))
    gamma = np.where(ahead > 0, gamma_base + ahead * drift.mu, fitted)

    kappa1 = float(fit.kappa1[-1]) + steps * drift.d[0]
    kappa2 = float(fit.kappa2[-1]) + steps * drift.d[1]
    mean = linear_predictor(kappa1, kappa2, gamma, fit.ages, years_fc, cohorts)

    load = np.column_stack([np.ones(fit.ages.size), fit.ages - fit.x_bar])
    kappa_var = np.einsum("ja,ab,jb->j", load, drift.V, load)
    cohort_steps = ahead[cohort_cols(fit.ages, years_fc, cohorts)]
    variance = steps[:, None] * kappa_var[None, :] + cohort_steps * drift.var_dgamma
    return Forecast(ages=fit.ages, years=years_fc, mean=mean, variance=variance)


def synthesize_counts(q: np.ndarray):
    """Back out (D, E) grids from initial rates at exposure ``SYNTH_EXPOSURE``.

    Used when a data source provides rates only: m = -log(1 - q), E is
    constant, D = E * m (non-integer counts are fine for the fitting
    routines).
    """
    q = np.asarray(q, dtype=float)
    E = np.full_like(q, SYNTH_EXPOSURE)
    return E * initial_to_central(q), E

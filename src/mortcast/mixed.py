"""Gaussian mixed-effects time-series model: fitting, BLUPs and forecasting.

The observation vector Y (stacked age-major) follows N(T beta, V) with
V = Z1 K1 Z1' + Z2 K2 Z2' + Z3 K3 Z3' + sigma2 I. Hyperparameters are
estimated by maximizing the marginal log-likelihood; the random-effect
vectors are then recovered as conditional means given Y (BLUPs), and each
cell's forecast is the predictive distribution of y there given Y, with
beta estimated by GLS (universal kriging).

The likelihood works in the column space of Z = [Z1 Z2 Z3] (q << N columns):
an evaluation factors one k x k matrix, k < q, and never forms the N x N V.

Hyperparameters are optimized in log space so positivity is structural,
with a BFGS ascent and a backtracking line search; every accepted step
increases the likelihood, so the trace is monotone by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import cohort_cols, cohort_labels
from .design import (
    DesignSet,
    KernelParams,
    build_covariances,
    cholesky_with_jitter,
    log_jitter,
    se_kernel,
)
from .errors import FactorizationError
from .forecasts import Forecast

LOG2PI = math.log(2.0 * math.pi)

#: log-parameter clip keeping exp() strictly positive and finite
_LOG_BOUND = 230.0
#: BFGS iterations per restart
MAX_ITER = 500
#: an accepted BFGS step gaining at most TOL * (1 + |LL|) is small; two in a
#: row, or one at a small gradient, stop the ascent
TOL = 1e-8


@dataclass(frozen=True)
class FixedEffects:
    """Estimated fixed intercept/slope and its GLS covariance (T' V^-1 T)^-1."""

    beta: np.ndarray
    cov_beta: np.ndarray


@dataclass(frozen=True)
class RandomEffects:
    """Conditional means and covariances of the three random-effect vectors.

    ``gamma1``/``gamma2`` live on the age axis, ``gamma3`` on the training
    cohort axis, or the extended one from :func:`extended_random_effects`.
    """

    gamma1: np.ndarray
    cov1: np.ndarray
    gamma2: np.ndarray
    cov2: np.ndarray
    gamma3: np.ndarray
    cov3: np.ndarray


@dataclass(frozen=True)
class MixedFit:
    """A marginal-likelihood fit: the model evaluated at the fitted
    hyperparameters and the optimizer's record. ``params``, ``design`` and
    ``y`` are the evaluation's, ``loglik`` is the trace's last value,
    ``sigma2_boundary`` flags a noise variance below 1e-10 (1 + var y), which
    :func:`fit` never calls ``converged``, and ``fixed`` and ``random`` are
    its posterior, computed on first read."""

    MODEL = "mixed"  # the tag of the fit artifact and the CLI
    evaluation: _Evaluation
    loglik_trace: np.ndarray
    converged: bool
    n_iter: int

    params = property(lambda self: self.evaluation.params)
    design = property(lambda self: self.evaluation.proj.design)
    y = property(lambda self: self.evaluation.proj.y)
    loglik = property(lambda self: float(self.loglik_trace[-1]))
    sigma2_boundary = property(
        lambda self: self.params.sigma2 < 1e-10 * (1.0 + float(np.var(self.y))))
    fixed = property(lambda self: self._effects[0])
    random = property(lambda self: self._effects[1])

    @cached_property
    def _effects(self) -> tuple[FixedEffects, RandomEffects]:
        return _posterior(self.evaluation)


def stack_grid(grid: np.ndarray) -> np.ndarray:
    """Stack a (years x ages) grid age-major to match the design rows."""
    return np.asarray(grid, dtype=float).T.ravel()


def unstack_vector(vec: np.ndarray, n_years: int, n_ages: int) -> np.ndarray:
    """Inverse of :func:`stack_grid`."""
    return np.asarray(vec, dtype=float).reshape(n_ages, n_years).T


def _as_stacked(y, design: DesignSet) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    N = design.tau.size
    if y.ndim == 2:
        if y.shape != (design.n_train + design.horizon, design.n_ages):
            raise ValueError(
                f"grid shape {y.shape} does not match design "
                f"({design.n_train + design.horizon} years x {design.n_ages} ages)"
            )
        y = stack_grid(y)
    if y.shape != (N,):
        raise ValueError(f"expected {N} stacked observations, got shape {y.shape}")
    return y


class _Projection:
    """Z = [Z1 Z2 Z3] = U R and y (grid or stacked) on range(Z), formed once
    per (y, design) from the q x q Gram Z'Z; U (N x k) is never formed.

    Z'Z = Q diag(lam) Q' by ``eigh``, keeping the eigenvalues above
    lam_max * q * eps. Z has two null directions, Z1 1 = Z3 1 and
    Z2 1 = Z3 c + Z1 a - t_bar Z1 1 (c and a the cohort and age labels), so
    k = min(N, q - 2). With U = Z Q lam^-1/2, kept are R = lam^1/2 Q' (k x q),
    U'y = lam^-1/2 Q'Z'y and |y - U U'y|^2, the latter taken in N-space as
    y - Z Q lam^-1 Q'Z'y. T = Z M, with M summing the Z1 block (intercept)
    and the Z2 block (slope), so U'T = R M and T has no part outside range(Z).
    """

    def __init__(self, y, design: DesignSet):
        self.y = y = _as_stacked(y, design)
        self.design = d = design
        m = d.n_ages
        q = 2 * m + d.cohort_index.size
        # the three nonzeros of each row: their columns and values
        cols = np.column_stack([d.row_age, m + d.row_age, 2 * m + d.row_cohort])
        vals = np.column_stack([np.ones(y.size), d.tau, np.ones(y.size)])
        ZtZ = np.bincount((cols[:, :, None] * q + cols[:, None, :]).ravel(),
                          (vals[:, :, None] * vals[:, None, :]).ravel(), q * q)
        lam, Q = np.linalg.eigh(ZtZ.reshape(q, q))
        keep = lam > lam[-1] * q * np.finfo(float).eps
        lam, Q = lam[keep], Q[:, keep]
        Qy = Q.T @ np.bincount(cols.ravel(), (vals * y[:, None]).ravel(), q)
        self.R = np.sqrt(lam)[:, None] * Q.T
        self.Uy = Qy / np.sqrt(lam)
        v = Q @ (Qy / lam)
        self.perp2 = float(np.sum((y - v[cols[:, 0]] - d.tau * v[cols[:, 1]]
                                   - v[cols[:, 2]]) ** 2))


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for lower-triangular L, by forward substitution over blocks of
    32 rows.

    Block i is X_i = L_ii^-1 (B_i - L_i,<i X_<i), with the small diagonal
    block inverted explicitly, so nearly all the work is two matrix
    products per block.
    """
    X = np.empty(B.shape)
    for i in range(0, L.shape[0], 32):
        j = i + 32
        X[i:j] = np.linalg.inv(L[i:j, i:j]) @ (B[i:j] - L[i:j, :i] @ X[:i])
    return X


class _Evaluation:
    """The mixed model at one ``params``, in the column space of Z.

    With Z = U R (:class:`_Projection`), V = sigma2 (I - U U') + U B U' for
    the k x k matrix B = sigma2 I + R K R', K = blockdiag(K1, K2, K3). B is
    factored once, B = L L', and one blocked forward substitution
    (:func:`_forward_solve`) whitens [U'y | R | I].
    Every quantity is then a sum of nonnegative terms and no N x N matrix is
    formed: log det V = (N - k) log sigma2 + log det B, y's part outside
    range(Z) adds |y_perp|^2 / sigma2 to the quadratic form, Z' V^-1 Z =
    R' B^-1 R and tr V^-1 = (N - k) / sigma2 + tr B^-1. ``jitter`` is the
    diagonal inflation B's factorization needed (0.0 when B factored as is).
    """

    def __init__(self, proj: _Projection, params: KernelParams):
        self.proj, self.params = proj, params
        self.kernels = build_covariances(params, proj.design)
        m, R = proj.design.n_ages, proj.R
        k, q = R.shape
        self.cols = (slice(0, m), slice(m, 2 * m), slice(2 * m, q))
        B = np.hstack([R[:, c] @ K for c, K in zip(self.cols, self.kernels)]) @ R.T
        B[np.diag_indices(k)] += params.sigma2
        L, self.jitter = cholesky_with_jitter(B)
        self.n_perp = proj.y.size - k
        self.logdet = self.n_perp * math.log(params.sigma2) + 2.0 * float(
            np.sum(np.log(np.diag(L))))
        S = _forward_solve(L, np.column_stack([proj.Uy, R, np.eye(k)]))
        self.wy, self.X, self.Linv = S[:, 0], S[:, 1 : 1 + q], S[:, 1 + q :]
        self.wT = np.column_stack([self.X[:, c].sum(axis=1) for c in self.cols[:2]])

    def e(self, beta) -> np.ndarray:
        """L^-1 U'(y - T beta), the whitened residual within range(Z)."""
        return self.wy - self.wT @ beta

    def loglik(self, beta) -> float:
        """Gaussian log-density of y under N(T beta, V)."""
        e = self.e(beta)
        quad = self.proj.perp2 / self.params.sigma2 + float(e @ e)
        return -0.5 * self.logdet - 0.5 * quad - 0.5 * self.proj.y.size * LOG2PI

    @cached_property
    def G(self) -> np.ndarray:
        """T' V^-1 T."""
        return self.wT.T @ self.wT

    @cached_property
    def beta(self) -> np.ndarray:
        """GLS beta = (T' V^-1 T)^-1 T' V^-1 y."""
        G = self.G
        # 2x2 normal matrix; exact singularity only with a single distinct year
        if abs(np.linalg.det(G)) <= 1e-14 * (abs(G[0, 0] * G[1, 1]) + 1e-300):
            raise np.linalg.LinAlgError("collinear fixed-effects design (single year?)")
        return np.linalg.solve(G, self.wT.T @ self.wy)

    @cached_property
    def ll(self) -> float:
        """Profile log-likelihood: the log-likelihood at the GLS beta."""
        return self.loglik(self.beta)

    def blocks(self, beta):
        """(Z_k' V^-1 Z_k, Z_k' a) for the three random effects, with
        a = V^-1 (y - T beta), so Z' a = R' B^-1 U'(y - T beta)."""
        e = self.e(beta)
        return [(self.X[:, c].T @ self.X[:, c], self.X[:, c].T @ e) for c in self.cols]

    def gradient(self, beta) -> np.ndarray:
        """Gradient of :meth:`loglik` in the order [h1, l1, h2, l2, c, s, sigma2]:
        -1/2 tr(V^-1 dV) + 1/2 a' dV a with a = V^-1 (y - T beta)."""
        p, d = self.params, self.proj.design
        dx2 = np.subtract.outer(d.ages, d.ages).astype(float) ** 2
        dc2 = np.subtract.outer(d.cohort_index, d.cohort_index).astype(float) ** 2
        g = np.empty(7)
        for slot, ((W, b), K, d2, amp, length) in enumerate(
            zip(self.blocks(beta), self.kernels, (dx2, dx2, dc2), (p.h1, p.h2, p.c),
                (p.l1, p.l2, p.s))
        ):
            # dK / d amplitude and dK / d length for the 2 * length convention
            for j, dK in enumerate(((2.0 / amp) * K, K * (d2 / (2.0 * length**2)))):
                g[2 * slot + j] = -0.5 * float(np.sum(W * dK)) + 0.5 * float(b @ dK @ b)
        # |a|^2 = |y_perp|^2 / sigma2^2 + |B^-1 U'(y - T beta)|^2
        Bie = self.Linv.T @ self.e(beta)
        trace = self.n_perp / p.sigma2 + float(np.sum(self.Linv * self.Linv))
        g[6] = -0.5 * trace + 0.5 * (self.proj.perp2 / p.sigma2**2 + float(Bie @ Bie))
        return g


def _evaluate(y, design: DesignSet, params: KernelParams) -> _Evaluation:
    """The model at ``params`` on (y, design): one projection, one logged factorization."""
    ev = _Evaluation(_Projection(y, design), params)
    log_jitter(ev.jitter, ev.wy.size)
    return ev


def log_likelihood(y, beta, params: KernelParams, design: DesignSet) -> float:
    """Gaussian log-density of Y under N(T beta, V(params)), from one
    :class:`_Evaluation`: a k x k factorization (k < q); V is never formed."""
    return _evaluate(y, design, params).loglik(np.asarray(beta, float))


def gls_beta(y, params: KernelParams, design: DesignSet) -> np.ndarray:
    """Closed-form maximizer beta = (T' V^-1 T)^-1 T' V^-1 Y."""
    return _evaluate(y, design, params).beta


def grad_loglik(y, beta, params: KernelParams, design: DesignSet) -> np.ndarray:
    """Analytic gradient of :func:`log_likelihood` in the order
    [h1, l1, h2, l2, c, s, sigma2].

    For each covariance parameter the derivative is
    -1/2 tr(V^-1 dV) + 1/2 r' V^-1 dV V^-1 r with r = Y - T beta, and
    dV/dsigma2 = I.
    """
    return _evaluate(y, design, params).gradient(np.asarray(beta, float))


def _bfgs_ascent(proj: _Projection, u0, free):
    """Maximize the profile LL (beta solved exactly) over the log parameters
    from u0, moving those the boolean mask ``free`` selects; returns
    (evaluation, trace, converged, iters).

    Each point is one :class:`_Evaluation` on ``proj``, which serves the
    likelihood, the gradient and, for the winning one, every estimate of the
    :class:`MixedFit`. beta is at its exact optimum, so the profile gradient
    equals the partial gradient there (envelope argument).

    Accepted steps satisfy an Armijo condition on -LL, so the likelihood
    trace is nondecreasing. Trial points that fail factorization, need
    jitter (their likelihood belongs to a different V) or go non-finite are
    rejected by backtracking, without a log record.
    """
    def evaluate(u) -> _Evaluation:
        return _Evaluation(proj, KernelParams.from_array(np.exp(u)))

    def gradient(ev: _Evaluation) -> np.ndarray:
        return (ev.params.as_array() * ev.gradient(ev.beta))[free]

    u = np.clip(u0, -_LOG_BOUND, _LOG_BOUND)
    state = evaluate(u)
    if not np.isfinite(state.ll):
        raise ValueError("non-finite log-likelihood at the initial parameters")
    g = gradient(state)
    trace = [state.ll]
    nfree = int(np.sum(free))
    H = np.eye(nfree)
    converged = False
    last_small = False

    for it in range(1, MAX_ITER + 1):
        gf = -g  # gradient of the objective being minimized
        d = -H @ gf
        if float(d @ gf) >= 0.0:  # not a descent direction: reset
            H = np.eye(nfree)
            d = -gf
        step_inf = float(np.max(np.abs(d))) if nfree else 0.0
        if step_inf > 5.0:
            d *= 5.0 / step_inf
        slope = float(gf @ d)
        if slope >= 0.0:
            break

        accepted = False
        alpha = 1.0
        for _ in range(60):
            u_try = u.copy()
            u_try[free] = np.clip(u[free] + alpha * d, -_LOG_BOUND, _LOG_BOUND)
            try:
                cand = evaluate(u_try)
                usable = cand.jitter == 0.0 and np.isfinite(cand.ll)
            except (FactorizationError, np.linalg.LinAlgError):
                usable = False
            if usable:
                sufficient = -cand.ll <= -state.ll + 1e-4 * alpha * slope
                # strict improvement required: deep backtracking must not
                # accept zero-progress steps once the Armijo term underflows
                if sufficient and cand.ll > state.ll:
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            # stalled: converged if the gradient is already negligible
            converged = float(np.max(np.abs(g))) <= 1e-5 * (1.0 + abs(state.ll))
            break

        g_new = gradient(cand)
        s = u_try[free] - u[free]
        y_diff = (-g_new) - gf
        sy = float(s @ y_diff)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y_diff) + 1e-300):
            if it == 1:
                H = (sy / float(y_diff @ y_diff)) * np.eye(nfree)
            rho = 1.0 / sy
            I = np.eye(nfree)
            A = I - rho * np.outer(s, y_diff)
            H = A @ H @ A.T + rho * np.outer(s, s)

        dll = cand.ll - state.ll
        u, state, g = u_try, cand, g_new
        trace.append(state.ll)
        small = abs(dll) <= TOL * (1.0 + abs(state.ll))
        if small:
            gnorm = float(np.max(np.abs(g))) if nfree else 0.0
            if last_small or gnorm <= 1e-3 * (1.0 + abs(state.ll)):
                converged = True
                break
        last_small = small

    return state, np.asarray(trace), converged, it


def default_init(y, design: DesignSet) -> KernelParams:
    """Data-driven starting point for the hyperparameter search.

    beta comes from OLS; half the OLS residual variance seeds sigma2 and
    its square root seeds the three amplitudes; the squared age range and
    a quarter of the squared cohort range seed the length scales.
    """
    y = _as_stacked(y, design)
    beta, *_ = np.linalg.lstsq(design.T, y, rcond=None)
    resid = y - design.T @ beta
    v0 = max(float(np.mean(resid**2)) / 2.0, 1e-10)
    amp = math.sqrt(v0)
    age_range = max(float(design.ages[-1] - design.ages[0]), 1.0)
    coh_range = max(
        float(design.cohort_index[-1] - design.cohort_index[0]), 1.0
    )
    return KernelParams(
        h1=amp,
        l1=age_range**2,
        h2=amp,
        l2=age_range**2,
        c=amp,
        s=coh_range**2 / 4.0,
        sigma2=v0,
    )


def _restart_init(base: KernelParams, run: int, seed) -> KernelParams:
    """Run 0 keeps the base values; runs 1/2 scale the length-scales by
    10 and 1/10; later runs draw log-uniform perturbations."""
    if run == 0:
        return base
    if run == 1:
        return replace(base, l1=base.l1 * 10, l2=base.l2 * 10, s=base.s * 10)
    if run == 2:
        return replace(base, l1=base.l1 / 10, l2=base.l2 / 10, s=base.s / 10)
    rng = np.random.default_rng([int(seed), run])
    f = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    g = 10.0 ** rng.uniform(-0.5, 0.5, size=3)
    return replace(
        base,
        h1=base.h1 * g[0],
        h2=base.h2 * g[1],
        c=base.c * g[2],
        l1=base.l1 * f[0],
        l2=base.l2 * f[1],
        s=base.s * f[2],
    )


def fit(
    y,
    design: DesignSet,
    init: KernelParams | None = None,
    restarts: int = 3,
    seed: int = 0,
    free: np.ndarray | None = None,
) -> MixedFit:
    """Maximize the marginal log-likelihood and recover all effect estimates.

    Parameters
    ----------
    y : (n, m) grid or stacked (n*m,) vector of logit rates
    design : training design (horizon 0)
    init : starting hyperparameters; derived from the data when omitted
    restarts : number of optimization runs; the best final likelihood wins
    seed : seeds the deterministic perturbations of runs beyond the third;
        must be >= 0
    free : optional boolean mask over [h1, l1, h2, l2, c, s, sigma2]
        restricting which log parameters the optimizer moves

    The best restart is ``converged`` only if its ascent met the stop rule
    away from the sigma2 boundary: at the boundary the likelihood grows
    without bound, so no optimum exists.

    Raises
    ------
    FactorizationError
        If every restart fails its covariance factorization.
    """
    if design.horizon != 0:
        raise ValueError("fit expects a training design (horizon 0)")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = init if init is not None else default_init(y, design)
    free = np.ones(7, dtype=bool) if free is None else np.asarray(free, dtype=bool)
    if free.shape != (7,):
        raise ValueError("free mask must have 7 entries")

    proj = _Projection(y, design)
    best = None
    failures = []
    for run in range(restarts):
        u0 = np.log(_restart_init(base, run, seed).as_array())
        try:
            state, trace, converged, iters = _bfgs_ascent(proj, u0, free)
        except (FactorizationError, ValueError) as exc:
            failures.append(f"run {run}: {exc}")
            continue
        if best is None or state.ll > best.evaluation.ll:
            best = MixedFit(state, trace, converged, iters)
    if best is None:
        raise FactorizationError(
            "all restarts failed: " + "; ".join(failures)
        )
    log_jitter(best.evaluation.jitter, best.evaluation.wy.size)
    return replace(best, converged=best.converged and not best.sigma2_boundary)


def _posterior(ev: _Evaluation, horizon: int = 0):
    """The fixed-effects estimate and the conditional (BLUP) distributions of
    the random effects, the cohort effect on the axis extended ``horizon``
    years.

    Effect k has mean K* Z_k'a and covariance K** - K* Z_k'V^-1Z_k K*'
    (GPML eqs. 2.25-2.26), K* its covariance with the training effect: K for
    the age effects; for the cohort effect, the training columns of K3**,
    the cohort kernel on the axis extended by ``horizon`` birth years (K3 at
    horizon 0).
    """
    d, p = ev.proj.design, ev.params
    K1, K2, _ = ev.kernels
    cohorts = np.arange(d.cohort_index[0], d.cohort_index[-1] + horizon + 1)
    K3ss = se_kernel(cohorts, cohorts, p.c, p.s)
    cross = ((K1, K1), (K2, K2), (K3ss[:, : d.cohort_index.size], K3ss))
    moments = []
    for (W, b), (Ks, Kss) in zip(ev.blocks(ev.beta), cross):
        moments += [Ks @ b, Kss - Ks @ W @ Ks.T]
    fixed = FixedEffects(beta=ev.beta, cov_beta=np.linalg.inv(ev.G))
    return fixed, RandomEffects(*moments)


def blup(y, fit: MixedFit) -> RandomEffects:
    """Conditional means and covariances of the random effects given Y.

    Recomputed from the fitted hyperparameters; equals ``fit.random``.
    """
    return _posterior(_evaluate(y, fit.design, fit.params))[1]


def _kriging(fit: MixedFit, years: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance grids (years x ages) of y at the cells of
    ``years`` given the training y, beta estimated by GLS: universal kriging
    (GPML eq. 2.42).

    A cell at age a, tau = t - t_bar and cohort column j has covariance Z g
    with the training y, g = [K1[:, a]; tau K2[:, a]; K3*[j]] and K3* the
    covariance of the cells' cohorts with the training ones. With X, e, wT
    and G from one :class:`_Evaluation`, its mean is t'beta + g'X'e and its
    variance k_cc - |X g|^2 + r'G^-1 r + sigma2, r = t - wT' X g.
    """
    ev = fit.evaluation
    d, p = fit.design, fit.params
    K1, K2, _ = ev.kernels
    cohorts = cohort_labels(d.ages, years)
    K3s = se_kernel(cohorts, d.cohort_index, p.c, p.s)
    # one entry (column) per cell, cells in (year, age) order
    age = np.tile(np.arange(d.n_ages), years.size)
    tau = np.repeat(years - d.t_bar, d.n_ages)
    coh = cohort_cols(d.ages, years, cohorts).ravel()
    t = np.vstack([np.ones(tau.size), tau])
    X1, X2, X3 = (ev.X[:, c] for c in ev.cols)
    # g'X'e through the effects' conditional means K* X_k'e
    e = ev.e(ev.beta)
    g1, g2, g3 = K1 @ (X1.T @ e), K2 @ (X2.T @ e), K3s @ (X3.T @ e)
    mean = ev.beta @ t + g1[age] + tau * g2[age] + g3[coh]
    Xg = (X1 @ K1)[:, age] + tau * (X2 @ K2)[:, age] + (X3 @ K3s.T)[:, coh]
    r = t - ev.wT.T @ Xg
    # k_cc from the kernels' diagonals; the latent part is >= 0 up to rounding
    k_cc = p.h1**2 + tau**2 * p.h2**2 + p.c**2
    latent = k_cc - np.sum(Xg**2, axis=0) + np.sum(r * np.linalg.solve(ev.G, r), axis=0)
    var = np.maximum(latent, 0.0) + p.sigma2
    return mean.reshape(years.size, -1), var.reshape(years.size, -1)


def fitted_surface(fit: MixedFit) -> tuple[np.ndarray, np.ndarray]:
    """In-sample predictive mean and variance grids (years x ages)."""
    return _kriging(fit, fit.design.train_years)


def forecast(fit: MixedFit, horizon: int, alpha: float = 0.05) -> Forecast:
    """Extend the fit h years ahead: each cell's predictive mean and variance
    given the training y at the fitted hyperparameters (:func:`_kriging`).
    ``alpha`` is unread; a band's level is chosen by ``Forecast.interval``.
    """
    if horizon < 1:
        raise ValueError("forecast horizon must be >= 1")
    years = fit.design.train_years[-1] + np.arange(1, horizon + 1)
    mean, var = _kriging(fit, years)
    return Forecast(ages=fit.design.ages, years=years, mean=mean, variance=var)


def extended_random_effects(fit: MixedFit, horizon: int) -> RandomEffects:
    """Random effects with the cohort vector extended ``horizon`` years ahead
    through its cross-covariance with the training cohorts (the age effects
    carry over unchanged); horizon 0 gives :func:`blup` on ``fit.y``."""
    return _posterior(fit.evaluation, horizon)[1]


def _sample_psd(K, rng):
    w, Q = np.linalg.eigh(K)
    w = np.clip(w, 0.0, None)
    return Q @ (np.sqrt(w) * rng.standard_normal(w.size))


def simulate(design: DesignSet, params: KernelParams, beta, rng) -> np.ndarray:
    """Draw one stacked observation vector from the generative model.

    Works on forecast-extended designs too: the cohort effect is drawn over
    the design's full cohort axis, so train/test splits of the result are
    internally consistent.
    """
    beta = np.asarray(beta, dtype=float)
    g1, g2, g3 = (_sample_psd(K, rng) for K in build_covariances(params, design))
    a, tau = design.row_age, design.tau
    eps = math.sqrt(params.sigma2) * rng.standard_normal(tau.size)
    return design.T @ beta + g1[a] + tau * g2[a] + g3[design.row_cohort] + eps

"""Independent brute-force oracles used to pin expected values.

Everything here deliberately takes the slow explicit route (dense
inverses, entrywise sums, joint-Gaussian block conditioning) so the
library's factorized implementations are checked against a different
computational path.
"""

import math

import numpy as np
import scipy.linalg

from mortcast.data import central_to_initial, inverse_logit, logit
from mortcast.design import (
    build_covariances,
    build_design,
    build_forecast_covariances,
    se_kernel,
)


def dense_design(design):
    """(T, Z1, Z2, Z3) written out row by row from the design's ages,
    training years and horizon alone: rows age-major over the training years
    extended by the horizon, time centred on the training mean, one cohort
    column per birth year from the oldest age's first year on."""
    ages, train = np.asarray(design.ages), np.asarray(design.train_years)
    years = np.arange(train[0], train[-1] + design.horizon + 1)
    first_cohort = years[0] - ages[-1]
    N, n_coh = ages.size * years.size, years[-1] - ages[0] - first_cohort + 1
    T, Z1, Z2, Z3 = (np.zeros((N, k)) for k in (2, ages.size, ages.size, n_coh))
    rows = ((i, x, t) for i, x in enumerate(ages) for t in years)
    for r, (i, x, t) in enumerate(rows):
        tau = t - train.mean()
        T[r] = 1.0, tau
        Z1[r, i] = 1.0
        Z2[r, i] = tau
        Z3[r, t - x - first_cohort] = 1.0
    return T, Z1, Z2, Z3


def dense_V(params, design):
    """Z1 K1 Z1' + Z2 K2 Z2' + Z3 K3 Z3' + sigma2 I by dense products."""
    _, Z1, Z2, Z3 = dense_design(design)
    K1, K2, K3 = build_covariances(params, design)
    V = Z1 @ K1 @ Z1.T + Z2 @ K2 @ Z2.T + Z3 @ K3 @ Z3.T
    return V + params.sigma2 * np.eye(V.shape[0])


def entrywise_V(params, design):
    """Sum of the three sandwich products computed cell by cell."""
    K1, K2, K3 = build_covariances(params, design)
    _, *Zs = dense_design(design)
    N = Zs[0].shape[0]
    V = np.zeros((N, N))
    for Z, K in zip(Zs, (K1, K2, K3)):
        for r in range(N):
            for c in range(N):
                acc = 0.0
                for a in range(K.shape[0]):
                    for b in range(K.shape[0]):
                        acc += Z[r, a] * K[a, b] * Z[c, b]
                V[r, c] += acc
    V += params.sigma2 * np.eye(N)
    return V


def dense_loglik(y, beta, params, design):
    """Gaussian log-density via an explicit matrix inverse and determinant."""
    V = dense_V(params, design)
    r = np.asarray(y, float) - dense_design(design)[0] @ np.asarray(beta, float)
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0
    quad = r @ np.linalg.inv(V) @ r
    return -0.5 * logdet - 0.5 * quad - 0.5 * len(r) * math.log(2 * math.pi)


def dense_gls(y, params, design):
    """beta-hat via explicit inverses."""
    Vinv = np.linalg.inv(dense_V(params, design))
    T = dense_design(design)[0]
    return np.linalg.inv(T.T @ Vinv @ T) @ (T.T @ Vinv @ np.asarray(y, float))


def fd_gradient(y, beta, params, design, rel_step=1e-5):
    """Central finite differences of the log-likelihood in each parameter."""
    from mortcast.design import KernelParams
    from mortcast.mixed import log_likelihood

    p0 = params.as_array()
    out = np.empty(7)
    for i in range(7):
        h = rel_step * p0[i]
        up, dn = p0.copy(), p0.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            log_likelihood(y, beta, KernelParams.from_array(up), design)
            - log_likelihood(y, beta, KernelParams.from_array(dn), design)
        ) / (2 * h)
    return out


def joint_conditioning(y, beta, params, design, horizon=0):
    """Condition the full joint Gaussian (Y, g1, g2, g3) on Y by brute force.

    With horizon > 0 the cohort block lives on the extended axis, so the
    returned third block is the extrapolated cohort effect and its
    covariance. Returns dict with means and covariance blocks.
    """
    K1, K2, K3 = build_covariances(params, design)
    if horizon > 0:
        dh = build_design(design.ages, design.train_years, horizon)
        K3_cross, K3_self = build_forecast_covariances(params, dh)
    else:
        K3_cross, K3_self = K3, K3

    T, Z1, Z2, Z3 = dense_design(design)
    V = dense_V(params, design)
    cov_gy = np.vstack([K1 @ Z1.T, K2 @ Z2.T, K3_cross @ Z3.T])
    cov_gg = scipy.linalg.block_diag(K1, K2, K3_self)

    Vinv = np.linalg.inv(V)
    r = np.asarray(y, float) - T @ np.asarray(beta, float)
    mean = cov_gy @ Vinv @ r
    cov = cov_gg - cov_gy @ Vinv @ cov_gy.T

    m = design.n_ages
    ncoh = K3_self.shape[0]
    i1, i2 = m, 2 * m
    return {
        "gamma1": mean[:i1],
        "gamma2": mean[i1:i2],
        "gamma3": mean[i2 : i2 + ncoh],
        "cov1": cov[:i1, :i1],
        "cov2": cov[i1:i2, i1:i2],
        "cov3": cov[i2 : i2 + ncoh, i2 : i2 + ncoh],
    }


def universal_kriging(y, params, design, horizon):
    """Predictive mean and variance of y at every cell of the design extended
    ``horizon`` years, given the training y, with beta estimated by GLS
    (Rasmussen & Williams, GPML eq. 2.42).

    Everything comes from the dense joint covariance C of all cells' latent
    values, Z1 K1 Z1' + Z2 K2 Z2' + Z3 K3 Z3' on the extended design, and
    explicit inverses: with V = C[train, train] + sigma2 I, a cell c has
    mean t_c'beta + C[train, c]' V^-1 (y - T beta) and variance
    C[c, c] - C[train, c]' V^-1 C[train, c] + r' (T' V^-1 T)^-1 r + sigma2,
    r = t_c - T' V^-1 C[train, c]. Returns stacked (age-major) vectors.
    """
    dh = build_design(design.ages, design.train_years, horizon)
    K1, K2, K3 = build_covariances(params, dh)
    Th, Z1, Z2, Z3 = dense_design(dh)
    C = Z1 @ K1 @ Z1.T + Z2 @ K2 @ Z2.T + Z3 @ K3 @ Z3.T
    # rows are stacked age-major: each age's block starts with the training years
    train = np.tile(np.arange(design.n_train + horizon) < design.n_train, design.n_ages)
    y, T, Kx = np.asarray(y, float), Th[train], C[train]
    Vinv = np.linalg.inv(C[np.ix_(train, train)] + params.sigma2 * np.eye(T.shape[0]))
    VKx = Vinv @ Kx
    cov_beta = np.linalg.inv(T.T @ Vinv @ T)
    beta = cov_beta @ T.T @ Vinv @ y
    mean = Th @ beta + VKx.T @ (y - T @ beta)
    r = Th.T - T.T @ VKx
    var = np.diag(C) - np.sum(Kx * VKx, axis=0) + np.sum(r * (cov_beta @ r), axis=0)
    return mean, var + params.sigma2


def random_params(rng, scale=1.0):
    """Moderate random positive hyperparameters for small instances."""
    from mortcast.design import KernelParams

    return KernelParams(
        h1=scale * rng.uniform(0.2, 1.5),
        l1=rng.uniform(2.0, 40.0),
        h2=scale * rng.uniform(0.02, 0.3),
        l2=rng.uniform(2.0, 40.0),
        c=scale * rng.uniform(0.1, 1.0),
        s=rng.uniform(4.0, 80.0),
        sigma2=rng.uniform(0.02, 0.4),
    )


def se_entry(u, v, amplitude, length):
    """Scalar kernel entry, written independently of the library helper."""
    return amplitude * amplitude * math.exp(-((u - v) ** 2) / (2.0 * length))


def tiny_amplitude_params(sigma2, length=10.0):
    """Kernels numerically indistinguishable from zero: V collapses to
    sigma2 * I (amplitude^2 underflows to ~1e-320)."""
    from mortcast.design import KernelParams

    eps = 1e-160
    return KernelParams(h1=eps, l1=length, h2=eps, l2=length, c=eps, s=length,
                        sigma2=sigma2)


def cbd_sweeps_reference(D, E, ages, years, max_sweeps=1000):
    """The CBD blockwise Newton sweeps written out plainly: the rate from
    ``np.logaddexp``, the logistic from ``inverse_logit``, the cell
    derivatives term by term, the (kappa1, kappa2) step from per-row sums
    and the cohort constraints re-imposed by a fresh ``lstsq`` each try.

    Same algorithm as ``fit_cbd``: start point, damping, stop rule and
    cohort exclusion. Returns a dict of the curves, the LL trace,
    ``converged``, ``n_sweeps`` and ``halvings``, the number of damped
    retries taken.
    """
    from mortcast.cbd import MIN_COHORT_CELLS, TOL

    D, E = np.asarray(D, float), np.asarray(E, float)
    ages, years = np.asarray(ages, int), np.asarray(years, int)
    cohorts = np.arange(years[0] - ages[-1], years[-1] - ages[0] + 1)
    cols = (years[:, None] - ages[None, :]) - cohorts[0]
    included = np.bincount(cols.ravel(), minlength=cohorts.size) >= MIN_COHORT_CELLS
    w = included[cols].astype(float)
    x = ages - ages.mean()
    log_fact = np.sum(w * np.vectorize(math.lgamma)(D + 1.0))
    members = {c: np.flatnonzero(cols.ravel() == c) for c in np.flatnonzero(included)}

    def derivatives(k1, k2, g3):
        eta = k1[:, None] + k2[:, None] * x[None, :] + g3[cols]
        m = np.logaddexp(0.0, eta)
        sig = inverse_logit(eta)
        dsig = sig * (1.0 - sig)
        low = eta < -30.0
        r1 = np.where(low, 1.0, sig / np.maximum(m, 1e-300))
        r2 = np.where(low, 1.0, dsig / np.maximum(m, 1e-300))
        U = D * r1 - E * sig
        H = D * r2 - E * dsig - D * r1**2
        return m, w * U, w * H

    def loglik(m):
        mu = w * E * m
        with np.errstate(divide="ignore"):
            log_mu = np.log(mu, out=np.zeros_like(mu), where=w * D != 0)
        return float(np.sum(w * D * log_mu - mu) - log_fact)

    q = np.clip(central_to_initial(np.clip(D / E, 1e-10, None)), 1e-12, 1.0 - 1e-12)
    y = logit(q)
    kappa1, kappa2 = y.mean(axis=1), (y * x).sum(axis=1) / float(x @ x)
    gamma3 = np.zeros(cohorts.size)
    m, U, H = derivatives(kappa1, kappa2, gamma3)
    ll = loglik(m)
    trace, converged, sweeps, halvings = [ll], False, 0, 0
    while sweeps < max_sweeps:
        sweeps += 1
        g1, g2 = U.sum(axis=1), (U * x).sum(axis=1)
        h11, h12, h22 = H.sum(axis=1), (H * x).sum(axis=1), (H * x**2).sum(axis=1)
        det = h11 * h22 - h12**2
        full = np.abs(det) > 1e-12 * (np.abs(h11 * h22) + 1e-300)
        safe = np.where(full, det, 1.0)
        dk1 = np.where(full, -(h22 * g1 - h12 * g2) / safe, -g1 / h11)
        dk2 = np.where(full, -(h11 * g2 - h12 * g1) / safe, 0.0)
        damping, accepted = 1.0, False
        for _ in range(12):
            k1, k2 = kappa1 + damping * dk1, kappa2 + damping * dk2
            _, tU, tH = derivatives(k1, k2, gamma3)
            g3 = gamma3.copy()
            for c, cells in members.items():
                g3[c] -= damping * tU.ravel()[cells].sum() / tH.ravel()[cells].sum()
            X = np.column_stack([np.ones(int(included.sum())), cohorts[included]])
            phi, *_ = np.linalg.lstsq(X, g3[included], rcond=None)
            k1 = k1 + (phi[0] + phi[1] * (years - ages.mean()))
            k2 = k2 - phi[1]
            g3 = np.where(included, g3 - (phi[0] + phi[1] * cohorts), 0.0)
            m, tU, tH = derivatives(k1, k2, g3)
            ll_new = loglik(m)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-9:
                accepted = True
                break
            damping *= 0.5
            halvings += 1
        if not accepted:
            break
        kappa1, kappa2, gamma3, U, H = k1, k2, g3, tU, tH
        dll, ll = ll_new - ll, ll_new
        trace.append(ll)
        if abs(dll) <= TOL * (1.0 + abs(ll)):
            converged = True
            break
    return {"kappa1": kappa1, "kappa2": kappa2, "gamma3": gamma3, "loglik": ll,
            "loglik_trace": np.asarray(trace), "converged": converged,
            "n_sweeps": sweeps, "halvings": halvings}

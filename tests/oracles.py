"""Independent brute-force oracles used to pin expected values.

Everything here deliberately takes the slow explicit route (dense
inverses, entrywise sums, joint-Gaussian block conditioning) so the
library's factorized implementations are checked against a different
computational path.
"""

import math

import numpy as np
import scipy.linalg

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

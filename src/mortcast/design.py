"""The stacked design as index vectors, and squared-exponential covariances.

Observations are stacked age-major: all years for the first age, then all
years for the second age, and so on. For each grid cell the fixed-effects
row is [1, t - t_bar] with t_bar the mean of the *training* years, the
intercept/slope incidence rows pick the cell's age, and the cohort dummy
row picks the cell's year of birth t - x. Cohort labels run consecutively
from years[0] - ages[-1] to years[-1] - ages[0]. Each row of Z = [Z1 Z2 Z3]
has three nonzeros: 1 at its age, tau = t - t_bar at its age and 1 at its
cohort, so a design stores the row's age, cohort column and tau, and every
product with Z is a gather or a scatter-add.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import cohort_cols, cohort_labels, consecutive_axis
from .errors import FactorizationError

#: Diagonal inflation applied once, relative to mean(diag(V)), when a
#: positive-definiteness factorization fails; a second failure is fatal.
JITTER_REL = 1e-8

_log = logging.getLogger("mortcast")


@dataclass(frozen=True)
class KernelParams:
    """Covariance hyperparameters and the observation-noise variance.

    ``h1``/``l1`` and ``h2``/``l2`` are the amplitude/length-scale pairs of
    the age-intercept and age-slope kernels, ``c``/``s`` the pair of the
    cohort kernel, ``sigma2`` the iid noise variance. All must be strictly
    positive and finite. Kernel entries follow the convention
    amplitude^2 * exp(-(u - v)^2 / (2 * length)) — the length-scale enters
    the denominator linearly, not squared.
    """

    h1: float
    l1: float
    h2: float
    l2: float
    c: float
    s: float
    sigma2: float

    NAMES = ("h1", "l1", "h2", "l2", "c", "s", "sigma2")

    def __post_init__(self):
        for name in self.NAMES:
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be strictly positive and finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        """Parameters as [h1, l1, h2, l2, c, s, sigma2]."""
        return np.array([getattr(self, n) for n in self.NAMES])

    @classmethod
    def from_array(cls, a) -> "KernelParams":
        a = np.asarray(a, dtype=float)
        if a.shape != (7,):
            raise ValueError(f"expected 7 parameters, got shape {a.shape}")
        return cls(*a)


@dataclass(frozen=True)
class DesignSet:
    """Index vectors tying stacked observations to fixed and random effects.

    With n training years, m ages and forecast horizon h, the stacked system
    has N = (n + h) * m rows in age-major order. Row r's cell sits at age
    column ``row_age[r]``, cohort column ``row_cohort[r]`` of
    ``cohort_index`` (n + h + m - 1 labels) and centred time ``tau[r]``, so
    Z1[r] is 1 at ``row_age[r]``, Z2[r] is ``tau[r]`` there and Z3[r] is 1 at
    ``row_cohort[r]``. ``T``, N x 2, is derived as [1, tau].
    """

    ages: np.ndarray
    train_years: np.ndarray
    horizon: int
    t_bar: float
    row_age: np.ndarray
    row_cohort: np.ndarray
    tau: np.ndarray
    cohort_index: np.ndarray

    @property
    def n_train(self) -> int:
        return self.train_years.size

    @property
    def n_ages(self) -> int:
        return self.ages.size

    @property
    def T(self) -> np.ndarray:
        """Fixed-effects design, rows [1, tau]."""
        return np.column_stack([np.ones(self.tau.size), self.tau])


def build_design(ages, train_years, horizon: int = 0) -> DesignSet:
    """Construct the stacked design for a training window, optionally extended.

    Parameters
    ----------
    ages, train_years : iterables of consecutive integers
    horizon : int >= 0
        0 gives the training design. h > 0 appends rows for h further years
        to every age block and widens the cohort axis accordingly; the time
        centering t_bar stays the training-year mean.

    The design holds each row's age column, cohort column and tau (see
    :class:`DesignSet`); no N x q matrix is formed.
    """
    ages = consecutive_axis(ages, "ages")
    train_years = consecutive_axis(train_years, "train_years")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")

    t_bar = float(train_years.mean())
    years = np.arange(train_years[0], train_years[-1] + horizon + 1)
    cohort_index = cohort_labels(ages, years)
    return DesignSet(
        ages=ages,
        train_years=train_years,
        horizon=int(horizon),
        t_bar=t_bar,
        row_age=np.repeat(np.arange(ages.size), years.size),
        row_cohort=cohort_cols(ages, years, cohort_index).T.ravel(),
        tau=np.tile(years - t_bar, ages.size),
        cohort_index=cohort_index,
    )


def se_kernel(labels_a, labels_b, amplitude: float, length: float) -> np.ndarray:
    """Squared-exponential covariance between two label sets.

    Entry (p, q) is amplitude^2 * exp(-(a_p - b_q)^2 / (2 * length)).
    """
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError(f"amplitude must be positive, got {amplitude!r}")
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be positive, got {length!r}")
    a = np.asarray(labels_a, dtype=float)
    b = np.asarray(labels_b, dtype=float)
    d2 = (a[:, None] - b[None, :]) ** 2
    return amplitude**2 * np.exp(-d2 / (2.0 * length))


def build_covariances(
    params: KernelParams, design: DesignSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance matrices (K1, K2, K3) of a design's random effects; K3
    spans the design's whole cohort axis, forecast extension included."""
    K1 = se_kernel(design.ages, design.ages, params.h1, params.l1)
    K2 = se_kernel(design.ages, design.ages, params.h2, params.l2)
    K3 = se_kernel(design.cohort_index, design.cohort_index, params.c, params.s)
    return K1, K2, K3


def build_forecast_covariances(
    params: KernelParams, design_h: DesignSet
) -> tuple[np.ndarray, np.ndarray]:
    """Cohort covariance blocks linking the extended axis to the training axis.

    Returns
    -------
    K3_star : (n+h+m-1) x (n+m-1)
        Cross-covariance of the extended cohort labels with the training ones;
        its top (n+m-1) x (n+m-1) block equals the training K3.
    K3_star_star : (n+h+m-1) x (n+h+m-1)
        Self-covariance of the extended cohort labels.
    """
    K3_star_star = build_covariances(params, design_h)[2]
    return K3_star_star[:, : design_h.n_train + design_h.n_ages - 1], K3_star_star


def assemble_V(params: KernelParams, design: DesignSet) -> np.ndarray:
    """Marginal covariance V = Z1 K1 Z1' + Z2 K2 Z2' + Z3 K3 Z3' + sigma2 I.

    Gathered from the kernels at each row pair's ages and cohorts, for
    dense checks and timings; the likelihood engine never forms V. The
    returned matrix is exact (no jitter); positive definiteness is verified
    via the shared jitter policy (a jittered check is logged, see
    :func:`log_jitter`) and failure raises ``FactorizationError``.
    """
    if design.horizon != 0:
        raise ValueError("assemble_V expects a training design (horizon 0)")
    K1, K2, K3 = build_covariances(params, design)
    a, c, tau = design.row_age, design.row_cohort, design.tau
    V = K1.take(a, 0).take(a, 1) + (tau[:, None] * K2.take(a, 0)).take(a, 1) * tau
    V += K3.take(c, 0).take(c, 1)
    V[np.diag_indices_from(V)] += params.sigma2
    log_jitter(cholesky_with_jitter(V)[1], V.shape[0])  # degenerate params fail here
    return V


def cholesky_with_jitter(V: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of V (or the evaluator's k x k matrix B),
    adding one round of diagonal jitter if needed.

    Returns (L, jitter) where jitter is 0.0 or the amount added to the
    diagonal; a caller that keeps a jittered factor logs it with
    :func:`log_jitter`, one that rejects it stays silent. L comes from
    ``numpy.linalg.cholesky`` (LAPACK ``potrf``), with its upper triangle
    exactly 0. A matrix with a NaN or infinite entry, which LAPACK would
    factor into NaNs, or a second failure raises ``FactorizationError``.
    """
    if not np.all(np.isfinite(V)):
        raise FactorizationError("covariance has non-finite entries")
    try:
        return np.linalg.cholesky(V), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_REL * float(np.mean(np.diag(V)))
    Vj = V + jitter * np.eye(V.shape[0])
    try:
        L = np.linalg.cholesky(Vj)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            "covariance not positive definite even after jitter"
        ) from None
    return L, jitter


def log_jitter(jitter: float, n: int) -> None:
    """Warn that a kept factor of an n x n matrix needed ``jitter``: it factors another one."""
    if jitter:
        _log.warning("covariance factorization needed jitter %.6g on the diagonal "
                     "(%d x %d matrix)", jitter, n, n)

"""Forecast grids with Gaussian prediction intervals, shared by both models."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cephes ndtri (S. Moshier, public domain), which scipy.special.ndtri wraps:
# coefficients from the highest power down, the denominators' leading 1 written out
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968,
       -1.2391658386738125)
_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
       200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008,
       14.684956192885803, 2.1866330685079025, -0.1402560791713545, -0.03504246268278482,
       -0.0008574567851546854)
_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075,
       2.504649462083094, -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755,
       0.20148538954917908, 0.012371663481782003, 0.00030158155350823543,
       2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
       0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06,
       6.790194080099813e-09)
_SQRT_2PI = 2.5066282746310007


def _horner(x: float, coefs) -> float:
    """The polynomial at x by Horner's rule, in the order of Cephes ``polevl``."""
    r = coefs[0]
    for c in coefs[1:]:
        r = r * x + c
    return r


def normal_quantile(alpha: float) -> float:
    """z such that a mean +/- z * sd band has coverage 1 - alpha.

    Cephes ``ndtri`` at y = 1 - alpha/2 with its branch points, coefficients
    and order of operations, so it equals ``scipy.special.ndtri(y)`` bit for
    bit. y > 1/2 leaves only the centre branch and the reflected tail. An
    alpha so small that y rounds to 1 (an infinite band) raises ValueError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    y = 1.0 - float(alpha) / 2.0
    if y == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1")
    if y <= 1.0 - 0.1353352832366127:  # 1 - exp(-2)
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(1.0 - y))
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return x - math.log(x) / x - z * _horner(z, P) / _horner(z, Q)  # x0 - x1 in Cephes


@dataclass(frozen=True)
class Forecast:
    """Per-cell forecast means and variances on the logit scale.

    Grids cover the forecast years only, the h years after the training
    window, with rows indexing years and columns indexing ages, matching
    ``MortalitySurface``. In-sample values come from the model's own
    function (``mixed.fitted_surface``, ``cbd.fitted_logit``).
    """

    ages: np.ndarray
    years: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != (self.years.size, self.ages.size):
            raise ValueError("mean grid shape does not match axes")
        if self.variance.shape != self.mean.shape:
            raise ValueError("variance grid shape does not match mean")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.variance))):
            raise ValueError("non-finite forecast mean or variance")
        if np.any(self.variance < 0):
            raise ValueError("negative forecast variance")

    def interval(self, alpha: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bounds mean -/+ z_alpha * sqrt(variance), per cell."""
        half = normal_quantile(alpha) * np.sqrt(self.variance)
        return self.mean - half, self.mean + half

    def year_slice(self, year: int) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) curves across ages for one year."""
        idx = np.flatnonzero(self.years == year)
        if idx.size == 0:
            raise ValueError(f"year {year} not covered by this forecast")
        return self.mean[idx[0]], self.variance[idx[0]]

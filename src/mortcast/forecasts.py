"""Forecast grids with Gaussian prediction intervals, shared by both models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def normal_quantile(alpha: float) -> float:
    """z such that a mean +/- z * sd band has coverage 1 - alpha.

    ``ndtri`` is imported here, not at module level: only prediction
    intervals need it, so ``fit`` and ``backtest`` never load its package.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    from scipy.special import ndtri

    return float(ndtri(1.0 - alpha / 2.0))


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

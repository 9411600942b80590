import os

# single-threaded BLAS: at this suite's matrix sizes thread handoff costs
# more than it saves, and fixed-order reductions keep runs bit-reproducible;
# must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from mortcast.data import MortalitySurface, inverse_logit


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def make_surface(ages, years, rng, trend=-0.03, noise=0.02):
    """Synthetic surface: logit rates linear in age and year plus noise."""
    ages = np.arange(ages[0], ages[1] + 1)
    years = np.arange(years[0], years[1] + 1)
    xw = (ages - ages.mean()) / 10.0
    tw = years - years.mean()
    y = -3.0 + 1.1 * xw[None, :] + trend * tw[:, None]
    y = y + 0.1 * np.sin(ages / 7.0)[None, :]
    y = y + noise * rng.standard_normal(y.shape)
    q = inverse_logit(y)
    return MortalitySurface(ages=ages, years=years, q=q)


@pytest.fixture
def small_surface(rng):
    return make_surface((60, 65), (1990, 2009), rng)


HMD_SAMPLE = """Japan, Death rates (period 1x1),\tLast modified: 06 Aug 2017;  Methods Protocol: v6 (2017)

  Year          Age             Female            Male           Total
  1947           60             0.021000   0.030000   0.025000
  1947           61             0.023000   0.033000   0.028000
  1948           60             0.020500   0.029000   0.024200
  1948           61             0.022400   0.032100   0.027000
  1949           60             0.020000   0.028000   0.024000
  1949           61             0.022000   0.031000   0.026000
  1949          110+            .          .          .
"""


@pytest.fixture
def hmd_sample():
    return HMD_SAMPLE


def surface_to_mx_csv(surface) -> str:
    """Render a surface as a year,age,mx CSV (inverse of the csv loader)."""
    from mortcast.data import initial_to_central

    lines = ["year,age,mx"]
    m = initial_to_central(surface.q)
    for i, t in enumerate(surface.years):
        for j, x in enumerate(surface.ages):
            lines.append(f"{t},{x},{float(m[i, j])!r}")
    return "\n".join(lines) + "\n"

"""Gaussian expectations: E[cos(Z)] for Z ~ N(0, sigma^2), the normal CDF and
the RBF kernel.

E[cos(Z)] has the closed form exp(-sigma^2 / 2), but the lab takes it from a
fixed degree-127 Gauss-Hermite rule.  The two agree to machine precision, yet
at sigma = 1 - 3 * 2**-53 and 1 - 4 * 2**-53, where the norms of unit vectors
land, they differ in the last bit, and verify reports would move.
"""

from __future__ import annotations

import functools

import numpy as np

GH_DEGREE = 127

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)


def std_normal_cdf(t):
    """Standard normal CDF, vectorized."""
    from scipy.special import ndtr

    return ndtr(t)


@functools.cache
def _gh_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(GH_DEGREE)


def gaussian_expectation(sigma: float) -> float:
    """E[cos(Z)] for Z ~ N(0, sigma^2), by the degree-127 Gauss-Hermite rule.

    sigma = 0 degenerates to cos(0) = 1.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return 1.0
    nodes, weights = _gh_nodes()
    return float(weights @ np.cos(_SQRT_2 * sigma * nodes) / _SQRT_PI)


def rbf_kernel(x: np.ndarray, y: np.ndarray) -> float:
    """exp(-||x - y||^2 / 2)."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-0.5 * np.dot(diff, diff)))

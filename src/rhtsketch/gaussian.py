"""Scalar test functionals and Gaussian expectations.

The embedding analysis repeatedly needs E[f(Z)] for Z ~ N(0, sigma^2) and a
1-Lipschitz scalar f.  Smooth functionals integrate to machine precision with
a fixed Gauss-Hermite rule.  Functionals with kinks (|x|, the truncated
absolute value) do not: a degree-127 rule leaves errors around 5e-3 at
sigma = 1, and doubling the degree barely helps, so those are integrated
piecewise between kinks instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

GH_DEGREE = 127

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ScalarFunctional:
    """A 1-Lipschitz scalar function and where it has kinks.

    ``eval`` must be vectorized over ndarrays.  ``kinks`` lists the points
    where the function is not smooth; an empty tuple routes integration
    through Gauss-Hermite, a nonempty one through piecewise quadrature.
    """

    label: str
    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    kinks: tuple[float, ...] = ()


def std_normal_cdf(t):
    """Standard normal CDF, vectorized."""
    from scipy.special import ndtr

    return ndtr(t)


@functools.cache
def _gh_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(GH_DEGREE)


def gauss_hermite_expectation(f: ScalarFunctional, sigma: float) -> float:
    """E[f(N(0, sigma^2))] by the degree-127 Gauss-Hermite rule.

    Exposed separately so the kink problem stays observable: calling this on
    a kinked functional is allowed, just inaccurate.
    """
    nodes, weights = _gh_nodes()
    return float(weights @ f.eval(_SQRT_2 * sigma * nodes) / _SQRT_PI)


def _piecewise_expectation(f: ScalarFunctional, sigma: float) -> float:
    # Integrate f(u) * pdf(u / sigma) / sigma on segments split at the kinks;
    # quad handles the infinite tails per segment.
    from scipy import integrate

    def integrand(u: float) -> float:
        t = u / sigma
        return float(f.eval(np.float64(u))) * np.exp(-0.5 * t * t) / (
            sigma * np.sqrt(2.0 * np.pi)
        )

    points = sorted(set(float(k) for k in f.kinks))
    edges = [-np.inf] + points + [np.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12)
        total += val
    return total


def gaussian_expectation(f: ScalarFunctional, sigma: float) -> float:
    """E[f(Z)] for Z ~ N(0, sigma^2).

    sigma = 0 degenerates to f(0).  Smooth functionals use Gauss-Hermite,
    kinked ones piecewise adaptive quadrature; both land within 1e-8 of the
    closed forms the tests check them against.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return float(f.eval(np.float64(0.0)))
    if f.kinks:
        return _piecewise_expectation(f, sigma)
    return gauss_hermite_expectation(f, sigma)


def rbf_kernel(x: np.ndarray, y: np.ndarray) -> float:
    """exp(-||x - y||^2 / 2)."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-0.5 * np.dot(diff, diff)))


def cosine_functional() -> ScalarFunctional:
    """cos, with E[cos(N(0, s^2))] = exp(-s^2 / 2)."""
    return ScalarFunctional(label="cos", eval=np.cos, lipschitz_constant=1.0)

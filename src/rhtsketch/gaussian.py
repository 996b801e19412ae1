"""Scalar test functionals and Gaussian expectations.

The embedding analysis repeatedly needs E[f(Z)] for Z ~ N(0, sigma^2) and a
1-Lipschitz scalar f.  Smooth functionals integrate to machine precision with
a fixed Gauss-Hermite rule.  Functionals with kinks (|x|, the truncated
absolute value) do not: a degree-127 rule leaves errors around 5e-3 at
sigma = 1, and doubling the degree barely helps, so those are integrated
piecewise between kinks instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

GH_DEGREE = 127

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)
_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class ScalarFunctional:
    """A 1-Lipschitz scalar function with optional analytic metadata.

    ``eval`` must be vectorized over ndarrays.  ``kinks`` lists the points
    where the function is not smooth; an empty tuple routes integration
    through Gauss-Hermite, a nonempty one through piecewise quadrature.
    ``closed_form`` when present maps sigma to E[f(N(0, sigma^2))].
    """

    label: str
    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    kinks: tuple[float, ...] = ()
    closed_form: Optional[Callable[[float], float]] = None


def std_normal_cdf(t):
    """Standard normal CDF, vectorized."""
    from scipy.special import ndtr

    return ndtr(t)


def std_normal_pdf(t):
    """Standard normal density, vectorized."""
    t = np.asarray(t, dtype=np.float64)
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def _gh_nodes(degree: int) -> tuple[np.ndarray, np.ndarray]:
    if degree not in _gh_cache:
        _gh_cache[degree] = np.polynomial.hermite.hermgauss(degree)
    return _gh_cache[degree]


def gauss_hermite_expectation(
    f: ScalarFunctional, sigma: float, degree: int = GH_DEGREE
) -> float:
    """E[f(N(0, sigma^2))] by a degree-``degree`` Gauss-Hermite rule.

    Exposed separately so the kink problem stays observable: calling this on
    a kinked functional is allowed, just inaccurate.
    """
    nodes, weights = _gh_nodes(degree)
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
    closed forms this package ships.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return float(f.eval(np.float64(0.0)))
    if f.kinks:
        return _piecewise_expectation(f, sigma)
    return gauss_hermite_expectation(f, sigma)


def quadrature_drift(f: ScalarFunctional, sigma: float) -> float:
    """|GH at degree 127 - GH at degree 254|, the degree-doubling guard."""
    lo = gauss_hermite_expectation(f, sigma, GH_DEGREE)
    hi = gauss_hermite_expectation(f, sigma, 2 * GH_DEGREE)
    return abs(hi - lo)


def rbf_kernel(x: np.ndarray, y: np.ndarray) -> float:
    """exp(-||x - y||^2 / 2)."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-0.5 * np.dot(diff, diff)))


def cosine_functional() -> ScalarFunctional:
    """cos, with E[cos(N(0, s^2))] = exp(-s^2 / 2)."""
    return ScalarFunctional(
        label="cos",
        eval=np.cos,
        lipschitz_constant=1.0,
        closed_form=lambda sigma: float(np.exp(-0.5 * sigma * sigma)),
    )


def identity_functional() -> ScalarFunctional:
    return ScalarFunctional(
        label="identity",
        eval=lambda x: np.asarray(x, dtype=np.float64) + 0.0,
        lipschitz_constant=1.0,
        closed_form=lambda sigma: 0.0,
    )


def abs_functional() -> ScalarFunctional:
    """|x|, with E|N(0, s^2)| = s * sqrt(2/pi)."""
    return ScalarFunctional(
        label="abs",
        eval=np.abs,
        lipschitz_constant=1.0,
        kinks=(0.0,),
        closed_form=lambda sigma: float(sigma * np.sqrt(2.0 / np.pi)),
    )


def _truncated_abs_mean(r: float, sigma: float) -> float:
    # E min(|Z|, r) = sigma*sqrt(2/pi)*(1 - exp(-r^2/(2 sigma^2)))
    #                 + 2*r*(1 - Phi(r/sigma))
    if sigma == 0.0:
        return 0.0
    t = r / sigma
    return float(
        sigma * np.sqrt(2.0 / np.pi) * (1.0 - np.exp(-0.5 * t * t))
        + 2.0 * r * (1.0 - std_normal_cdf(t))
    )


def truncated_abs_functional(r: float) -> ScalarFunctional:
    """min(|x|, r), the clipped magnitude used by the distance estimator."""
    if not np.isfinite(r) or r < 0:
        raise ValueError(f"truncation radius must be finite and >= 0, got {r}")
    return ScalarFunctional(
        label=f"truncated_abs[{r:g}]",
        eval=lambda x, _r=r: np.minimum(np.abs(x), _r),
        lipschitz_constant=1.0,
        kinks=(-r, 0.0, r) if r > 0 else (0.0,),
        closed_form=lambda sigma, _r=r: _truncated_abs_mean(_r, sigma),
    )

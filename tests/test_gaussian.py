"""Gaussian oracle tests: closed forms first, quadrature against them."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from rhtsketch.gaussian import _gh_nodes, gaussian_expectation, rbf_kernel, std_normal_cdf

from oracles import quadrature_drift, truncated_abs_mean

SIGMAS = [0.1, 0.5, 1.0, 2.0, 4.0]


def test_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    # high-precision value of the CDF at 3, the default quantile level
    assert abs(std_normal_cdf(3.0) - 0.9986501019683699) < 1e-15


def test_cdf_symmetry():
    for t in [0.3, 1.0, 2.5, 4.0]:
        assert abs(std_normal_cdf(t) + std_normal_cdf(-t) - 1.0) < 1e-14


def test_cdf_monotone_and_open_range():
    grid = np.linspace(-8.0, 8.0, 2001)
    vals = std_normal_cdf(grid)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] > 0.0 and vals[-1] < 1.0


def test_cdf_derivative_matches_normal_density_numerically():
    t = np.linspace(-4, 4, 81)
    h = 1e-6
    numeric = (std_normal_cdf(t + h) - std_normal_cdf(t - h)) / (2 * h)
    assert_allclose(np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi), numeric, atol=1e-9)


def test_pdf_integrates_to_one_by_quadrature():
    _, weights = _gh_nodes()
    assert abs(weights.sum() / np.sqrt(np.pi) - 1.0) < 1e-10


def test_cos_expectation_examples():
    # sigma^2 = 2 gives exactly 1/e
    assert abs(gaussian_expectation(np.sqrt(2.0)) - np.exp(-1.0)) < 1e-10


@pytest.mark.parametrize("sigma", SIGMAS, ids=lambda sigma: f"cos-{sigma}")
def test_quadrature_agrees_with_closed_form(sigma):
    assert abs(gaussian_expectation(sigma) - np.exp(-0.5 * sigma * sigma)) < 1e-8


def test_sigma_zero_degenerates_to_point_evaluation():
    assert gaussian_expectation(0.0) == 1.0


def test_rejects_negative_or_nonfinite_sigma():
    with pytest.raises(ValueError):
        gaussian_expectation(-1.0)
    with pytest.raises(ValueError):
        gaussian_expectation(np.nan)


def test_degree_doubling_guard():
    # degree 127 has already converged for cos
    for sigma in (1.0, 4.0):
        assert quadrature_drift(sigma) < 1e-10


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_truncation_bound(eps):
    # sqrt(pi/2) * E psi_{r*}(Z) >= 1 - eps/8 at r* = 4 sqrt(ln 1/eps), Z std normal
    r_star = 4.0 * np.sqrt(np.log(1.0 / eps))
    val = truncated_abs_mean(r_star, 1.0)
    # E min(|Z|, r) = 2 * integral over [0, inf) of min(u, r) * pdf(u), split at the kink
    pdf = lambda u: np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    inner, _ = integrate.quad(lambda u: u * pdf(u), 0.0, r_star, epsabs=1e-13, epsrel=1e-12)
    tail, _ = integrate.quad(pdf, r_star, np.inf, epsabs=1e-13, epsrel=1e-12)
    assert abs(val - 2.0 * (inner + r_star * tail)) < 1e-10
    assert np.sqrt(np.pi / 2.0) * val >= 1.0 - eps / 8.0


def test_rbf_kernel_examples():
    x = np.array([1.0, 0.0]); y = np.array([0.0, 1.0])  # gap sqrt(2)
    assert rbf_kernel(x, x) == 1.0
    assert abs(rbf_kernel(x, y) - np.exp(-1.0)) < 1e-15
    assert abs(rbf_kernel(np.zeros(3), np.array([2.0, 0.0, 0.0])) - np.exp(-2.0)) < 1e-15

"""Gaussian oracle tests: closed forms first, quadrature against them."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rhtsketch.gaussian import (
    ScalarFunctional,
    cosine_functional,
    gauss_hermite_expectation,
    gaussian_expectation,
    rbf_kernel,
    std_normal_cdf,
)

from oracles import (
    CLOSED_FORMS,
    abs_functional,
    identity_functional,
    quadrature_drift,
    truncated_abs_functional,
    truncated_abs_mean,
)

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
    one = ScalarFunctional(label="one", eval=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)), lipschitz_constant=1.0)
    assert abs(gaussian_expectation(one, 1.0) - 1.0) < 1e-10


def test_cos_expectation_examples():
    cos = cosine_functional()
    assert gaussian_expectation(cos, 0.0) == 1.0
    # sigma^2 = 2 gives exactly 1/e
    assert abs(gaussian_expectation(cos, np.sqrt(2.0)) - np.exp(-1.0)) < 1e-10


def test_abs_expectation_half_normal():
    assert abs(gaussian_expectation(abs_functional(), 1.0) - np.sqrt(2.0 / np.pi)) < 1e-10


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize(
    "make",
    [cosine_functional, abs_functional, identity_functional],
    ids=["cos", "abs", "identity"],
)
def test_quadrature_agrees_with_closed_form(make, sigma):
    f = make()
    assert abs(gaussian_expectation(f, sigma) - CLOSED_FORMS[f.label](sigma)) < 1e-8


@pytest.mark.parametrize("sigma", SIGMAS)
def test_truncated_abs_agreement_at_wide_radius(sigma):
    # r >= 4*sigma: truncation nearly inactive, closed form still exact
    f = truncated_abs_functional(4.0 * sigma)
    assert abs(gaussian_expectation(f, sigma) - truncated_abs_mean(4.0 * sigma, sigma)) < 1e-8


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 3.0])
def test_truncated_abs_agreement_at_binding_radius(r):
    f = truncated_abs_functional(r)
    for sigma in (0.5, 1.0, 2.0):
        assert abs(gaussian_expectation(f, sigma) - truncated_abs_mean(r, sigma)) < 1e-8


def test_sigma_zero_degenerates_to_point_evaluation():
    assert gaussian_expectation(abs_functional(), 0.0) == 0.0
    assert gaussian_expectation(truncated_abs_functional(2.0), 0.0) == 0.0


def test_rejects_negative_or_nonfinite_sigma():
    with pytest.raises(ValueError):
        gaussian_expectation(cosine_functional(), -1.0)
    with pytest.raises(ValueError):
        gaussian_expectation(cosine_functional(), np.nan)


def test_degree_doubling_guard():
    # smooth functionals: degree 127 already converged
    for f, sigma in [(cosine_functional(), 1.0), (cosine_functional(), 4.0), (identity_functional(), 2.0)]:
        assert quadrature_drift(f, sigma) < 1e-10
    # kinked functionals: the guard fires, which is why they are integrated
    # piecewise rather than by the fixed rule
    assert quadrature_drift(abs_functional(), 1.0) > 1e-6
    assert quadrature_drift(truncated_abs_functional(2.0), 1.0) > 1e-6
    # and the fixed rule really is that far off on a kink
    raw = gauss_hermite_expectation(abs_functional(), 1.0)
    assert abs(raw - np.sqrt(2.0 / np.pi)) > 1e-4


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_truncation_bound(eps):
    # sqrt(pi/2) * E psi_{r*}(Z) >= 1 - eps/8 at r* = 4 sqrt(ln 1/eps), Z std normal
    r_star = 4.0 * np.sqrt(np.log(1.0 / eps))
    val = gaussian_expectation(truncated_abs_functional(r_star), 1.0)
    assert np.sqrt(np.pi / 2.0) * val >= 1.0 - eps / 8.0


def test_rbf_kernel_examples():
    x = np.array([1.0, 0.0]); y = np.array([0.0, 1.0])  # gap sqrt(2)
    assert rbf_kernel(x, x) == 1.0
    assert abs(rbf_kernel(x, y) - np.exp(-1.0)) < 1e-15
    assert abs(rbf_kernel(np.zeros(3), np.array([2.0, 0.0, 0.0])) - np.exp(-2.0)) < 1e-15


@pytest.mark.parametrize(
    "make,r",
    [(cosine_functional, None), (abs_functional, None), (identity_functional, None),
     (truncated_abs_functional, 1.5)],
    ids=["cos", "abs", "identity", "truncated_abs"],
)
def test_lipschitz_property_on_grid(make, r):
    f = make(r) if r is not None else make()
    grid = np.linspace(-10.0, 10.0, 401)
    vals = f.eval(grid)
    gaps = np.abs(vals[:, None] - vals[None, :])
    bound = f.lipschitz_constant * np.abs(grid[:, None] - grid[None, :])
    assert np.all(gaps <= bound + 1e-12)


def test_truncated_abs_rejects_bad_radius():
    with pytest.raises(ValueError):
        truncated_abs_functional(-1.0)
    with pytest.raises(ValueError):
        truncated_abs_functional(np.inf)

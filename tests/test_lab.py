import numpy as np
import pytest
from numpy.testing import assert_allclose

from rhtsketch.ensemble import build_ensemble
from rhtsketch.gaussian import ScalarFunctional, cosine_functional
from rhtsketch.lab import (
    ball_points,
    basis_max_experiment,
    default_t_grid,
    ecdf_deviation,
    gaussian_baseline_max,
    lipschitz_deviation,
    test_vector_suite,
)

from oracles import abs_functional, identity_functional

# the factory is not a test despite its name
test_vector_suite.__test__ = False


def test_suite_contents_d4():
    suite = test_vector_suite(4, 0, 0)
    by_label = dict(suite)
    assert list(by_label) == ["basis", "flat", "dyadic(1)", "dyadic(2)"]
    assert_allclose(by_label["basis"], [1, 0, 0, 0])
    assert_allclose(by_label["flat"], [0.5, 0.5, 0.5, 0.5])
    assert_allclose(by_label["dyadic(1)"], [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])


def test_suite_unit_norms_and_random_count():
    suite = test_vector_suite(37, 5, 3)
    assert sum(1 for label, _ in suite if label.startswith("random_")) == 5
    for _, v in suite:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v.shape == (37,)


def test_suite_rejects_bad_dims():
    with pytest.raises(ValueError):
        test_vector_suite(1, 0, 0)
    with pytest.raises(ValueError):
        test_vector_suite(8, -1, 0)


def test_lipschitz_identity_at_basis_vector_closed_form():
    # identity functional at e_1: the d-average collapses block constancy
    # to the mean first-diagonal entry
    ens = build_ensemble(16, 32, 4)
    e1 = np.zeros(16); e1[0] = 1.0
    suite = (("basis", e1),)
    rep = lipschitz_deviation(ens, identity_functional(), suite)
    expected = abs(float(np.mean(ens.diagonals[:, 0])))
    assert_allclose(rep.per_case[0][1], expected, rtol=1e-12)


def test_lipschitz_zero_vector_gives_zero_deviation():
    ens = build_ensemble(8, 4, 1)
    suite = (("zero", np.zeros(8)),)
    rep = lipschitz_deviation(ens, cosine_functional(), suite)
    assert rep.per_case[0][1] == 0.0


def test_lipschitz_invariant_under_constant_shift():
    ens = build_ensemble(32, 64, 5)
    suite = test_vector_suite(32, 2, 5)
    base = lipschitz_deviation(ens, abs_functional(), suite)
    shifted = ScalarFunctional(
        label="abs+5",
        eval=lambda x: np.abs(x) + 5.0,
        lipschitz_constant=1.0,
        kinks=(0.0,),
    )
    moved = lipschitz_deviation(ens, shifted, suite)
    for (_, a), (_, b) in zip(base.per_case, moved.per_case):
        assert abs(a - b) <= 1e-12


def test_lipschitz_invariant_under_positive_scaling():
    ens = build_ensemble(32, 64, 6)
    suite = test_vector_suite(32, 2, 6)
    base = lipschitz_deviation(ens, cosine_functional(), suite)
    scaled = ScalarFunctional(
        label="3cos",
        eval=lambda x: 3.0 * np.cos(x),
        lipschitz_constant=3.0,
    )
    moved = lipschitz_deviation(ens, scaled, suite)
    for (_, a), (_, b) in zip(base.per_case, moved.per_case):
        assert abs(a - b) <= 1e-12


def test_lipschitz_report_shape():
    ens = build_ensemble(16, 8, 7)
    suite = test_vector_suite(16, 1, 7)
    rep = lipschitz_deviation(ens, cosine_functional(), suite)
    assert rep.label == "lipschitz_deviation[cos]"
    assert len(rep.per_case) == len(suite)
    assert rep.max_deviation == max(dev for _, dev in rep.per_case)
    with pytest.raises(ValueError):
        lipschitz_deviation(ens, cosine_functional(), ())


def test_ecdf_deviation_bounds_and_grid_validation():
    ens = build_ensemble(64, 16, 8)
    flat = np.ones(64) / 8.0
    grid = default_t_grid()
    sup = ecdf_deviation(ens, flat, grid)
    assert 0.0 <= sup <= 1.0
    with pytest.raises(ValueError, match="sorted"):
        ecdf_deviation(ens, flat, grid[::-1])
    with pytest.raises(ValueError, match="span"):
        ecdf_deviation(ens, flat, np.linspace(-4, 5, 1001))
    with pytest.raises(ValueError, match="span"):
        ecdf_deviation(ens, flat, np.linspace(-5, 5, 101))
    with pytest.raises(ValueError, match="unit"):
        ecdf_deviation(ens, 2.0 * flat, grid)


def test_ecdf_single_sample_is_degenerate():
    # one-point ECDF: a unit jump somewhere, so the sup gap is near 1/2
    ens = build_ensemble(1, 1, 0)
    sup = ecdf_deviation(ens, np.ones(1), default_t_grid())
    assert sup >= 0.45


def test_basis_max_d1_half_normal_median():
    stats = basis_max_experiment(1, 64, 2000, 0)
    expected = 0.6744897501960817 / np.sqrt(64)
    assert abs(stats["median"] - expected) <= 0.1 * expected
    assert len(stats["per_trial"]) == 2000
    assert stats["mean"] > 0


def test_basis_max_grows_with_dimension():
    big = basis_max_experiment(1024, 16, 200, 0)
    small = basis_max_experiment(64, 16, 200, 0)
    assert big["median"] > small["median"]


def test_basis_max_decreases_with_block_count():
    medians = [basis_max_experiment(64, m, 500, 0)["median"] for m in (4, 16, 64)]
    assert medians[0] > medians[1] > medians[2]


def test_basis_max_rejects_bad_trials():
    with pytest.raises(ValueError):
        basis_max_experiment(4, 4, 0, 0)


def test_baseline_d1_half_normal_scale():
    stats = gaussian_baseline_max(100, 1, 2000, 0)
    expected = np.sqrt(2.0 / (np.pi * 100))
    assert abs(stats["mean"] - expected) <= 0.005


def test_baseline_large_n_sanity():
    # n = 10^6, d = 4: mean of the norm is E chi_4 / 1000, about sqrt(d/n)
    stats = gaussian_baseline_max(10**6, 4, 25, 0)
    import math
    expected = math.sqrt(2.0) * math.gamma(2.5) / math.gamma(2.0) / 1000.0
    assert abs(stats["mean"] - expected) <= 5e-4
    assert 0.0015 <= stats["mean"] <= 0.0025


def test_baseline_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian_baseline_max(0, 4, 10, 0)
    with pytest.raises(ValueError):
        gaussian_baseline_max(10, 4, 0, 0)


def test_ball_points_lie_in_the_ball_and_rows_are_per_stream():
    pts = ball_points(20, 5, 3)
    assert pts.shape == (20, 5)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)
    assert np.array_equal(ball_points(4, 5, 3), pts[:4])
    assert not np.array_equal(ball_points(4, 5, 4), pts[:4])

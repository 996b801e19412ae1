import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rhtsketch import streams
from rhtsketch.ensemble import build_ensemble
from rhtsketch.features import (
    build_feature_map,
    default_feature_blocks,
    features,
    kerdec_decompose,
    kernel_error_sweep,
)
from rhtsketch.gaussian import rbf_kernel

from oracles import approx_kernel


@pytest.fixture(scope="module")
def desk_map():
    # shared desk-scale map: d = 64, m = 2000, seeds 0
    return build_feature_map(build_ensemble(64, 2000, 0), 0)


def test_phases_reproducible_and_in_range():
    ens = build_ensemble(100, 1000, 0)
    fmap = build_feature_map(ens, 0)
    again = build_feature_map(ens, 0)
    assert_array_equal(fmap.phases, again.phases)
    assert fmap.phases.shape == (1000 * 128,)
    assert fmap.phases.min() >= 0.0 and fmap.phases.max() < 2.0 * np.pi
    # 10^5 phases: sample mean within 4*(2pi/sqrt(12))/sqrt(1e5) of pi
    sample = fmap.phases[:100000]
    assert abs(sample.mean() - np.pi) <= 4.0 * (2 * np.pi / np.sqrt(12)) / np.sqrt(1e5)


def test_phase_stream_disjoint_from_diagonal_stream():
    ens = build_ensemble(64, 4, 5)
    fmap = build_feature_map(ens, 5)
    assert not set(fmap.phases.ravel()) & set(ens.diagonals.ravel())


def test_feature_entries_within_cos_envelope(desk_map):
    x = streams.unit_vector(0, 10, 64)
    vec = features(desk_map, x)
    bound = np.sqrt(2.0 / (2000 * 64))
    assert vec.shape == (2000 * 64,)
    assert np.all(np.abs(vec) <= bound + 1e-15)
    assert 0.0 <= float(vec @ vec) <= 2.0


def test_features_of_zero_vector(desk_map):
    # embedding vanishes, features reduce to cosines of the phases
    vec = features(desk_map, np.zeros(64))
    scale = np.sqrt(2.0 / (2000 * 64))
    assert_array_equal(vec, scale * np.cos(desk_map.phases))
    assert abs(float(vec @ vec) - 1.0) <= 5.0 / np.sqrt(2000 * 64)


def test_features_rejects_bad_input(desk_map):
    with pytest.raises(ValueError):
        features(desk_map, np.zeros(63))
    with pytest.raises(ValueError):
        features(desk_map, np.full(64, np.nan))


def test_approx_kernel_self_far_and_mid(desk_map):
    x = streams.unit_vector(0, 777, 64)
    assert abs(approx_kernel(desk_map, x, x) - 1.0) <= 0.02
    e1 = np.zeros(64); e1[0] = 1.0
    e2 = np.zeros(64); e2[1] = 1.0
    # orthogonal unit pair: gap sqrt(2), kernel exactly 1/e
    assert abs(approx_kernel(desk_map, e1, e2) - np.exp(-1.0)) <= 0.05
    far = 6.5 * e1
    assert abs(approx_kernel(desk_map, far, -far)) <= 0.05


def test_approx_kernel_symmetric_bitwise(desk_map):
    x, y = streams.unit_vector(0, 20, 64), streams.unit_vector(0, 21, 64)
    assert approx_kernel(desk_map, x, y) == approx_kernel(desk_map, y, x)


def test_kerdec_identity_random_pairs(desk_map):
    for i in range(5):
        x, y = streams.unit_vector(0, 40 + 2 * i, 64), streams.unit_vector(0, 41 + 2 * i, 64)
        sum_term, diff_term = kerdec_decompose(desk_map, x, y)
        assert abs(sum_term + diff_term - approx_kernel(desk_map, x, y)) <= 1e-10


def test_kerdec_at_origin(desk_map):
    sum_term, diff_term = kerdec_decompose(desk_map, np.zeros(64), np.zeros(64))
    assert diff_term == 1.0
    expected = float(np.mean(np.cos(2.0 * desk_map.phases)))
    assert sum_term == expected


def test_kerdec_sum_term_small_at_desk_scale(desk_map):
    # phase randomization kills the sum term for ||x+y|| <= 4
    for i in range(10):
        x, y = streams.unit_vector(0, 500 + 2 * i, 64), streams.unit_vector(0, 501 + 2 * i, 64)
        sum_term, _ = kerdec_decompose(desk_map, x, y)
        assert abs(sum_term) <= 0.05


def test_kerdec_diff_term_depends_only_on_difference(desk_map):
    # grid-aligned values keep (x+w)-(y+w) bit-equal to x-y, so the
    # difference term cannot move at all
    rng = np.random.default_rng(0)
    x = rng.integers(-512, 512, size=64) / 1024.0
    y = rng.integers(-512, 512, size=64) / 1024.0
    w = rng.integers(-512, 512, size=64) / 1024.0
    _, diff0 = kerdec_decompose(desk_map, x, y)
    _, diff1 = kerdec_decompose(desk_map, x + w, y + w)
    assert diff0 == diff1


def test_unbiased_over_fresh_maps_at_non_power_of_two_d():
    # padding adds real feature coordinates; the estimator must stay
    # unbiased at logical_d = 5 (padded to 8)
    x = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    y = np.array([-0.1, 0.4, 0.2, -0.3, 0.2])
    exact = rbf_kernel(x, y)
    vals = np.array([
        approx_kernel(build_feature_map(build_ensemble(5, 8, s), 1000 + s), x, y)
        for s in range(200)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3.0 * se


def test_sweep_singleton_pair():
    fmap = build_feature_map(build_ensemble(8, 16, 3), 3)
    x = streams.unit_vector(3, 0, 8)
    rep = kernel_error_sweep(fmap, [x, x.copy()])
    expected = abs(approx_kernel(fmap, x, x) - 1.0)
    assert_allclose(rep.max_deviation, expected, rtol=1e-12)
    assert len(rep.per_case) == 3  # (0,0), (0,1), (1,1)


def test_sweep_all_zero_points():
    fmap = build_feature_map(build_ensemble(8, 16, 4), 4)
    rep = kernel_error_sweep(fmap, [np.zeros(8), np.zeros(8)])
    scale = 2.0 / (16 * 8)
    expected = abs(scale * float(np.sum(np.cos(fmap.phases) ** 2)) - 1.0)
    assert_allclose(rep.max_deviation, expected, rtol=1e-12)


def test_sweep_report_structure(desk_map):
    pts = [streams.unit_vector(0, 900 + i, 64) for i in range(5)]
    rep = kernel_error_sweep(desk_map, pts)
    assert rep.label == "kernel_error_sweep"
    assert len(rep.per_case) == 15
    assert rep.max_deviation == max(dev for _, dev in rep.per_case)
    assert sum(rep.params["histogram_counts"]) == 15
    assert rep.params["d"] == 64 and rep.params["m"] == 2000


def test_sweep_rejects_single_point(desk_map):
    with pytest.raises(ValueError):
        kernel_error_sweep(desk_map, [np.zeros(64)])


def test_default_feature_blocks():
    assert default_feature_blocks(0.1, 0.01, 1.0) == int(np.ceil(800 * np.log(200.0)))
    # diameter below 1 clamps to 1
    assert default_feature_blocks(0.1, 0.01, 0.5) == default_feature_blocks(0.1, 0.01, 1.0)
    assert default_feature_blocks(0.1, 0.01, 2.0) == int(np.ceil(3200 * np.log(200.0)))
    with pytest.raises(ValueError):
        default_feature_blocks(0.6, 0.01, 1.0)
    with pytest.raises(ValueError):
        default_feature_blocks(0.1, 0.01, -1.0)

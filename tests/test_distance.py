import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rhtsketch import streams
from rhtsketch.distance import (
    DEFAULT_ALPHA,
    QueryParams,
    adaptive_stress,
    build_estimator,
    default_block_count,
    default_sample_count,
    insert,
    psi,
    quantile,
    query,
    stress_round_seed,
)
from rhtsketch.ensemble import embed


def small_estimator(d=16, m=64, seed=0, n=6):
    est = build_estimator(d, m, seed)
    pts = np.stack([streams.unit_vector(seed, i, d) for i in range(n)])
    for row in pts:
        insert(est, row)
    return est, pts


# --- quantile / psi -------------------------------------------------------

def test_quantile_examples():
    assert quantile([5.0], 0.3) == 5.0
    assert quantile([5.0], 0.97) == 5.0
    assert quantile([1, 2, 3, 4], 0.5) == 2.0
    assert quantile([1, 2, 3, 4], 0.99) == 4.0


def test_quantile_order_independent():
    assert quantile([4, 1, 3, 2], 0.5) == 2.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        quantile([], 0.5)
    with pytest.raises(ValueError, match="alpha"):
        quantile([1.0], 0.0)
    with pytest.raises(ValueError, match="alpha"):
        quantile([1.0], 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=40),
    st.floats(0.01, 0.99),
)
def test_quantile_is_smallest_value_covering_alpha(values, alpha):
    v = quantile(values, alpha)
    arr = np.asarray(values)
    assert v in arr
    assert np.mean(arr <= v) >= alpha - 1e-12
    below = arr[arr < v]
    if below.size:
        assert np.mean(arr <= below.max()) < alpha


def test_psi():
    assert psi(2.0, -3.0) == 2.0
    assert psi(2.0, 1.0) == 1.0
    assert psi(0.0, 123.0) == 0.0
    assert_array_equal(psi(1.5, np.array([-3.0, 0.5, 2.0])), [1.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        psi(-0.1, 1.0)
    with pytest.raises(ValueError):
        psi(np.nan, 1.0)


def test_quantile_and_psi_vectorize_over_rows():
    rows = np.array([[4.0, 1.0, 3.0, 2.0], [-1.0, 8.0, 0.5, 7.0]])
    assert_array_equal(quantile(rows, 0.5), [quantile(r, 0.5) for r in rows])
    radii = np.array([[1.5], [2.0]])
    assert_array_equal(psi(radii, rows), [[1.5, 1.0, 1.5, 1.5], [1.0, 2.0, 0.5, 2.0]])
    with pytest.raises(ValueError):
        psi(np.array([1.0, -0.1]), 1.0)


# --- defaults / params ----------------------------------------------------

def test_default_counts():
    # pinned values behind the acceptance run: d=128, n=100, eps=0.1, delta=0.01
    assert default_block_count(128, 0.1, 0.01) == 7566
    assert default_sample_count(100, 0.1, 0.01) == 8478
    assert default_block_count(128, 0.1, 0.01) == math.ceil(800 * math.log(12800.0))
    # n clamps below at 1
    assert default_sample_count(0, 0.1, 0.01) == default_sample_count(1, 0.1, 0.01)
    with pytest.raises(ValueError):
        default_block_count(0, 0.1, 0.01)
    with pytest.raises(ValueError):
        default_sample_count(10, 0.5, 0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps": 0.0}, {"eps": 0.5}, {"delta": 0.0}, {"delta": 0.7},
        {"alpha": 0.0}, {"alpha": 1.0}, {"k": 0},
    ],
)
def test_query_params_validation(kwargs):
    base = {"eps": 0.1, "delta": 0.01, "query_seed": 0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        QueryParams(**base)


def test_default_alpha_is_cdf_at_three():
    assert abs(DEFAULT_ALPHA - 0.9986501019683699) < 1e-15


# --- build / insert / query ----------------------------------------------

def test_build_pads_dimension():
    est = build_estimator(5, 8, 0)
    assert est.ensemble.dim.padded_d == 8
    assert est.n == 0


def test_query_on_empty_estimator_returns_empty():
    est = build_estimator(8, 4, 0)
    out = query(est, np.zeros(8), QueryParams(eps=0.1, delta=0.01, query_seed=1))
    assert out.shape == (0,)


def test_query_on_empty_estimator_with_details():
    est = build_estimator(8, 4, 0)
    params = QueryParams(eps=0.1, delta=0.01, query_seed=1)
    estimates, details = query(est, np.zeros(8), params, return_details=True)
    for arr in (estimates, details.quantiles, details.radii):
        assert arr.shape == (0,)
    k = default_sample_count(0, params.eps, params.delta)
    drawn = streams.generator(1, streams.QUERY, 0).integers(0, 4 * 8, size=k)
    assert_array_equal(details.indices, drawn)


def test_insert_returns_indices_and_reembeds_identically():
    est, pts = small_estimator()
    assert est.n == len(pts)
    idx = insert(est, pts[0])
    assert idx == len(pts)
    for i, row in enumerate(pts):
        assert_array_equal(est.embeddings[i].values, embed(est.ensemble, row).values)


def test_build_then_insert_deterministic():
    est1, pts = small_estimator(seed=3)
    est2, _ = small_estimator(seed=3)
    for a, b in zip(est1.embeddings, est2.embeddings):
        assert_array_equal(a.values, b.values)


def test_coincident_query_is_exact_zero():
    est, pts = small_estimator()
    params = QueryParams(eps=0.1, delta=0.01, query_seed=9)
    out = query(est, pts[2], params)
    assert out[2] == 0.0


def test_estimates_nonnegative_finite_and_details_consistent():
    est, pts = small_estimator()
    params = QueryParams(eps=0.2, delta=0.1, query_seed=4, k=500)
    q = streams.unit_vector(1, 50, 16)
    out, details = query(est, q, params, return_details=True)
    assert np.all(out >= 0) and np.all(np.isfinite(out))
    assert details.indices.shape == (500,)
    assert details.quantiles.shape == (len(pts),) and details.radii.shape == (len(pts),)
    # reconstruct each estimate from the recorded indices: same sampled
    # coordinates serve the quantile and the mean, for every stored point
    y = embed(est.ensemble, q).values
    for i in range(len(pts)):
        diffs = y[details.indices] - est.embeddings[i].values[details.indices]
        assert quantile(diffs, params.alpha) == details.quantiles[i]
        r = max(0.0, 2.0 * math.sqrt(math.log(1 / 0.2)) * details.quantiles[i])
        assert_allclose(r, details.radii[i], rtol=1e-15)
        expected = math.sqrt(math.pi / 2) * float(np.mean(psi(details.radii[i], diffs)))
        assert_allclose(out[i], expected, rtol=1e-12)


def test_monotone_truncation():
    # raising the radius never lowers the estimate; r = inf recovers the
    # untruncated scaled mean of |differences|
    est, pts = small_estimator()
    params = QueryParams(eps=0.1, delta=0.01, query_seed=12, k=400)
    q = 1.7 * streams.unit_vector(2, 60, 16)
    out, details = query(est, q, params, return_details=True)
    y = embed(est.ensemble, q).values
    for i in range(len(pts)):
        diffs = y[details.indices] - est.embeddings[i].values[details.indices]
        prev = out[i]
        for r in (details.radii[i], details.radii[i] * 1.5, details.radii[i] * 4, np.inf):
            val = math.sqrt(math.pi / 2) * float(np.mean(psi(r, diffs)))
            assert val >= prev - 1e-15
            prev = val
        untruncated = math.sqrt(math.pi / 2) * float(np.mean(np.abs(diffs)))
        assert_allclose(prev, untruncated, rtol=1e-15)


def test_query_homogeneity():
    d, m, seed = 16, 128, 5
    pts = np.stack([streams.unit_vector(seed, i, d) for i in range(4)])
    params = QueryParams(eps=0.1, delta=0.01, query_seed=21)
    q = streams.unit_vector(seed, 99, d)

    def run(scale):
        est = build_estimator(d, m, seed)
        for row in pts:
            insert(est, scale * row)
        return query(est, scale * q, params)

    base = run(1.0)
    # powers of two rescale every intermediate exactly
    assert_array_equal(run(2.0), 2.0 * base)
    assert_array_equal(run(0.5), 0.5 * base)
    assert_allclose(run(3.0), 3.0 * base, rtol=1e-12)


def test_query_rejects_bad_input():
    est, _ = small_estimator()
    params = QueryParams(eps=0.1, delta=0.01, query_seed=0)
    with pytest.raises(ValueError):
        query(est, np.zeros(15), params)
    with pytest.raises(ValueError):
        query(est, np.full(16, np.inf), params)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5), st.floats(0.05, 0.45))
def test_query_estimates_always_valid(seed, n, eps):
    d, m = 8, 16
    est = build_estimator(d, m, seed)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        insert(est, rng.normal(size=d))
    out = query(est, rng.normal(size=d), QueryParams(eps=eps, delta=0.01, query_seed=seed, k=64))
    assert out.shape == (n,)
    assert np.all(out >= 0) and np.all(np.isfinite(out))


def test_full_entry_quantile_matches_normal_three_sigma():
    # quant_{Phi(3)} over all m*d entries of a flat-vector embedding sits
    # within [2.8, 3.2] once m*d = 2^16 (true N(0,1) quantile: 3)
    est = build_estimator(256, 256, 0)
    flat = np.ones(256) / 16.0
    q = quantile(embed(est.ensemble, flat).values, DEFAULT_ALPHA)
    assert 2.8 <= q <= 3.2


# --- adaptive stress ------------------------------------------------------

def test_stress_basis_single_round_equals_plain_query():
    est, pts = small_estimator(d=16, m=256, seed=6, n=5)
    params = QueryParams(eps=0.1, delta=0.01, query_seed=0)
    rep = adaptive_stress(est, 1, "basis", 31, points=pts, params=params)
    e1 = np.zeros(16); e1[0] = 1.0
    plain = query(est, e1, QueryParams(eps=0.1, delta=0.01, query_seed=stress_round_seed(31, 0)))
    truths = np.linalg.norm(pts - e1[None, :], axis=1)
    expected = float(np.max(np.abs(plain - truths) / truths))
    assert rep.per_case == [("round_0", expected)]
    assert rep.max_deviation == expected


def test_stress_zero_rounds_empty_report():
    est, pts = small_estimator()
    rep = adaptive_stress(est, 0, "basis", 0, points=pts)
    assert rep.per_case == [] and rep.max_deviation == 0.0


def test_stress_greedy_runs_all_rounds():
    est, pts = small_estimator(d=16, m=512, seed=7, n=6)
    params = QueryParams(eps=0.2, delta=0.05, query_seed=0, k=2000)
    rep = adaptive_stress(est, 8, "greedy-feedback", 13, points=pts, params=params)
    assert [cid for cid, _ in rep.per_case] == [f"round_{t}" for t in range(8)]
    assert rep.max_deviation == max(dev for _, dev in rep.per_case)
    assert rep.params["adversary"] == "greedy-feedback"
    # desk-scale run stays within the coarse eps target
    assert rep.max_deviation <= 0.2


def test_stress_deterministic():
    est, pts = small_estimator(d=16, m=256, seed=8, n=4)
    a = adaptive_stress(est, 5, "greedy-feedback", 99, points=pts)
    b = adaptive_stress(est, 5, "greedy-feedback", 99, points=pts)
    assert a.per_case == b.per_case


def test_stress_rejects_bad_input():
    est, pts = small_estimator()
    with pytest.raises(ValueError, match="adversary"):
        adaptive_stress(est, 1, "chaotic", 0, points=pts)
    with pytest.raises(ValueError, match="rounds"):
        adaptive_stress(est, -1, "basis", 0, points=pts)
    with pytest.raises(ValueError, match="shape"):
        adaptive_stress(est, 1, "basis", 0, points=pts[:-1])
    empty = build_estimator(16, 4, 0)
    with pytest.raises(ValueError, match="no points"):
        adaptive_stress(empty, 1, "basis", 0, points=np.zeros((0, 16)))

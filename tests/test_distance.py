import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr

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

from oracles import partition_quantile, stored_embeddings


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


# Row widths with rank n at DEFAULT_ALPHA (up to 740), rank n - 1 (741 to
# 1481) and lower.
TIE_WIDTHS = [1, 2, 3, 7, 64, 537, 740, 741, 1001, 1200]
SIGNED_TIES = ([0.0, -0.0], [np.nan, -np.nan], [0.0, -0.0, np.nan, -np.nan])
OTHER_TIES = [np.inf, -np.inf, -1e-300, 2.0]


def _tie_rows(rng, rows, width):
    """Normal draws, all <= 0 in every other row, with each row's own share
    of entries replaced by ties: one of SIGNED_TIES and up to two OTHER_TIES.
    Equal values whose bits differ are then often the row maximum."""
    values = rng.normal(size=(rows, width))
    values[::2] = -np.abs(values[::2])
    more = rng.choice(OTHER_TIES, size=rng.integers(0, 3), replace=False)
    pool = np.concatenate([SIGNED_TIES[rng.integers(3)], more])
    tied = rng.random((rows, width)) < rng.random((rows, 1))
    values[tied] = pool[rng.integers(0, len(pool), size=tied.sum())]
    return values


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.999, 0.5, 0.01])
def test_quantile_bits_match_partition_reference(alpha):
    rng = np.random.default_rng(29)
    for width in TIE_WIDTHS + list(rng.integers(1, 1201, size=6)):
        block = _tie_rows(rng, 40, width)
        want = partition_quantile(block, alpha)
        assert_array_equal(quantile(block, alpha).view(np.int64), want.view(np.int64))
        for row in block[:8]:
            got = np.float64(quantile(row, alpha))
            assert got.view(np.int64) == np.float64(partition_quantile(row, alpha)).view(np.int64)


def test_quantile_of_zero_row_is_positive_zero():
    for width in (1, 537, 1001):
        zeros = np.zeros(width)
        assert np.float64(quantile(zeros, DEFAULT_ALPHA)).view(np.int64) == 0
        assert not quantile(zeros[None, :], DEFAULT_ALPHA).view(np.int64).any()


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
        {"eps": 0.0}, {"eps": 0.5}, {"delta": 0.0}, {"delta": 0.7}, {"k": 0},
    ],
    # kwargs4 and kwargs5 were the alpha cases, gone with the alpha init field
    ids=["kwargs0", "kwargs1", "kwargs2", "kwargs3", "kwargs6"],
)
def test_query_params_validation(kwargs):
    base = {"eps": 0.1, "delta": 0.01, "query_seed": 0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        QueryParams(**base)


def test_default_alpha_is_cdf_at_three():
    assert DEFAULT_ALPHA == float(ndtr(3.0))


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
    stored = stored_embeddings(est)
    for i, row in enumerate(pts):
        assert_array_equal(stored[i], embed(est.ensemble, row).values)


def reference_query(ens, pts, q, params):
    """The paper's estimator, one stored point at a time, from embed(...)."""
    y = embed(ens, q).values
    k = params.k
    indices = streams.generator(params.query_seed, streams.QUERY, 0).integers(0, y.size, size=k)
    rank = min(max(math.ceil(params.alpha * k), 1), k)
    scale = 2.0 * math.sqrt(math.log(1.0 / params.eps))
    estimates, quantiles, radii = [], [], []
    for x in pts:
        diffs = y[indices] - embed(ens, x).values[indices]
        quantiles.append(np.sort(diffs)[rank - 1])
        radii.append(np.maximum(0.0, scale * quantiles[-1]))
        estimates.append(math.sqrt(math.pi / 2) * np.mean(np.minimum(np.abs(diffs), radii[-1])))
    return indices, [np.array(v, dtype=np.float64) for v in (estimates, quantiles, radii)]


def assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


# (d, m, chunk width): m * padded_d = 65792 floats make a 514 KiB row, so
# only 8 rows fit in 8 MiB; m * padded_d = 1024 make an 8 KiB row, so 64 do.
WIDTH_8 = (256, 257, 8)
WIDTH_64 = (16, 64, 64)


@pytest.mark.parametrize("d,m", [(5, 1), (8, 8), (20, 5), (64, 3), WIDTH_8[:2]])
def test_chunked_store_matches_per_point_reference_across_chunk_boundaries(d, m):
    # queries between inserts seal full chunks mid-stream; m * padded_d = 64
    # at d=8, m=8 makes a point-major and a sealed chunk of 64 points the
    # same shape
    ens_seed = d + m
    est = build_estimator(d, m, ens_seed)
    width = est.chunk_width
    assert width == (8 if (d, m) == WIDTH_8[:2] else 64)
    rng = np.random.default_rng(d)
    last = 2 * width + 1
    pts = rng.normal(size=(last, d))
    checkpoints = {0, 1, width - 1, width, width + 1, 2 * width, last}
    for n in range(last + 1):
        if n in checkpoints:
            assert est.n == n
            q = rng.normal(size=d)
            params = QueryParams(eps=0.1, delta=0.01, query_seed=100 + n, k=97)
            indices, expected = reference_query(est.ensemble, pts[:n], q, params)
            first = query(est, q, params, return_details=True)
            again = query(est, q, params, return_details=True)
            for estimates, details in (first, again):
                assert_array_equal(details.indices, indices)
                for got, want in zip((estimates, details.quantiles, details.radii), expected):
                    assert_bitwise_equal(got, want)
            stored = stored_embeddings(est)
            assert len(stored) == n
            for i, emb in enumerate(stored):
                assert_array_equal(emb, embed(est.ensemble, pts[i]).values)
            assert_bitwise_equal(query(est, q, params), expected[0])
        if n < last:
            assert insert(est, pts[n]) == n


def assert_query_matches_reference(est, pts, q, params):
    indices, expected = reference_query(est.ensemble, pts, q, params)
    estimates, details = query(est, q, params, return_details=True)
    assert_array_equal(details.indices, indices)
    for got, want in zip((estimates, details.quantiles, details.radii), expected):
        assert_bitwise_equal(got, want)


@pytest.mark.parametrize("d,m,width", [WIDTH_8, WIDTH_64])
def test_query_sealing_several_chunks_matches_reference(d, m, width):
    # n = 3C + 5: the first query seals three chunks at once and leaves a
    # 5-point open chunk
    est, pts = small_estimator(d=d, m=m, n=3 * width + 5)
    assert est.chunk_width == width
    q = streams.unit_vector(1, 99, d)
    params = QueryParams(eps=0.1, delta=0.01, query_seed=5, k=97)
    assert_query_matches_reference(est, pts, q, params)
    assert est._sealed == 3


@pytest.mark.parametrize("d,m,width", [WIDTH_8, WIDTH_64])
def test_seal_refused_its_scratch_leaves_store_consistent(d, m, width, monkeypatch):
    est, pts = small_estimator(d=d, m=m, n=3 * width + 5)
    assert est.chunk_width == width
    chunk_shape = (width, est.ensemble.diagonals.size)
    empty = np.empty

    def refuse_chunk(shape, *args, **kwargs):
        if shape == chunk_shape:
            raise MemoryError("no room for a chunk")
        return empty(shape, *args, **kwargs)

    q = streams.unit_vector(1, 99, d)
    params = QueryParams(eps=0.1, delta=0.01, query_seed=5, k=97)
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", refuse_chunk)
        with pytest.raises(MemoryError):
            query(est, q, params)
    assert est._sealed == 0
    for i, emb in enumerate(stored_embeddings(est)):
        assert_array_equal(emb, embed(est.ensemble, pts[i]).values)
    assert_query_matches_reference(est, pts, q, params)
    assert est._sealed == 3


# Chunk width C of the d=20, m=6 estimator below (64): rejecting at C and 2C
# refuses a point that would open a later chunk, at C - 1 one that would fill
# the first.
REJECT_WIDTH = build_estimator(20, 6, 1).chunk_width


@pytest.mark.parametrize(
    "before", [0, 3, 8, 16, REJECT_WIDTH - 1, REJECT_WIDTH, 2 * REJECT_WIDTH]
)
@pytest.mark.parametrize(
    "bad,match",
    [(np.full(20, np.nan), "finite"), (np.zeros(19), "entries"), (np.zeros((1, 20)), "entries")],
)
def test_rejected_insert_leaves_estimator_unchanged(before, bad, match):
    n = 2 * REJECT_WIDTH + 2
    pts = np.random.default_rng(before).normal(size=(n, 20))
    clean, probed = build_estimator(20, 6, 1), build_estimator(20, 6, 1)
    for i, x in enumerate(pts):
        if i == before:
            with pytest.raises(ValueError, match=match):
                insert(probed, bad)
            assert probed.n == i
        insert(clean, x)
        insert(probed, x)
    assert probed.n == clean.n == n
    for seed in range(2):
        q = np.random.default_rng(50 + seed).normal(size=20)
        params = QueryParams(eps=0.1, delta=0.01, query_seed=seed, k=300)
        want, want_details = query(clean, q, params, return_details=True)
        got, got_details = query(probed, q, params, return_details=True)
        assert_bitwise_equal(got, want)
        assert_bitwise_equal(got_details.quantiles, want_details.quantiles)
        assert_bitwise_equal(got_details.radii, want_details.radii)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _steady_query_bound(est, q, k):
    # One reused (C, k) block, the (k, C) gathered coordinates and the
    # quantile's partition of the block, plus estimates, quantiles and radii;
    # the slack is q's embedding, its k sampled entries and indices, and 64 KiB.
    width = min(est.chunk_width, est.n)
    return 3 * width * k * 8 + 24 * est.n + _peak(embed, est.ensemble, q) + 16 * k + (64 << 10)


@pytest.mark.parametrize("d,m,width", [WIDTH_8, WIDTH_64])
def test_sealing_query_adds_at_most_one_chunk(d, m, width):
    # n = 2C + 4 leaves two full chunks for the first query to seal and a
    # 4-point open chunk.  Tracing starts before the inserts, so the frees of
    # the point-major chunks count, and the sealing query's peak is measured
    # from the traced size just before it.
    n, k = 2 * width + 4, 4000
    q = streams.unit_vector(1, 99, d)
    tracemalloc.start()
    try:
        est, _ = small_estimator(d=d, m=m, n=n)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        query(est, q, QueryParams(eps=0.1, delta=0.01, query_seed=1, k=k))
        sealing = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert est.chunk_width == width
    chunk = width * est.ensemble.diagonals.size * 8
    steady = _peak(query, est, q, QueryParams(eps=0.1, delta=0.01, query_seed=2, k=k))
    bound = _steady_query_bound(est, q, k)
    assert steady <= bound
    assert sealing <= bound + chunk


@pytest.mark.parametrize("d,m,width", [WIDTH_8, WIDTH_64])
@pytest.mark.parametrize("chunks", [1, 4])
def test_query_memory_does_not_grow_with_n(d, m, width, chunks):
    # n = C + 3 and n = 4C + 3; an n x k difference matrix breaks the bound
    n, k = chunks * width + 3, 10000
    est, _ = small_estimator(d=d, m=m, n=n)
    assert est.chunk_width == width
    q = streams.unit_vector(1, 99, d)
    query(est, q, QueryParams(eps=0.1, delta=0.01, query_seed=1, k=k))  # seals
    steady = _peak(query, est, q, QueryParams(eps=0.1, delta=0.01, query_seed=2, k=k))
    assert steady <= _steady_query_bound(est, q, k)


@pytest.mark.parametrize("d,m,width", [WIDTH_8, WIDTH_64])
def test_width_plus_one_inserts_allocate_two_chunks(d, m, width):
    est = build_estimator(d, m, 0)
    assert est.chunk_width == width
    chunk = width * est.ensemble.diagonals.size * 8
    pts = [streams.unit_vector(0, i, d) for i in range(width + 1)]
    tracemalloc.start()
    try:
        for x in pts:
            insert(est, x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 2 * chunk <= held < 2 * chunk + (64 << 10)


def test_build_then_insert_deterministic():
    est1, pts = small_estimator(seed=3)
    est2, _ = small_estimator(seed=3)
    assert_array_equal(stored_embeddings(est1), stored_embeddings(est2))


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
    stored = stored_embeddings(est)
    for i in range(len(pts)):
        diffs = y[details.indices] - stored[i][details.indices]
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
    stored = stored_embeddings(est)
    for i in range(len(pts)):
        diffs = y[details.indices] - stored[i][details.indices]
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

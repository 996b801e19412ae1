"""End-to-end acceptance gate.

One test per acceptance criterion.  Each prints a single line

    [PASS|FAIL] criterion N (name): detail

to the real stdout (bypassing capture) before asserting, so a plain pytest
run always shows the per-criterion verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from rhtsketch import streams
from rhtsketch.cli import EXIT_OK, run
from rhtsketch.distance import (
    QueryParams,
    adaptive_stress,
    build_estimator,
    default_block_count,
    default_sample_count,
    insert,
    query,
)
from rhtsketch.ensemble import build_ensemble, distortion_check, embed, embed_batch
from rhtsketch.features import (
    build_feature_map,
    features,
    kerdec_decompose,
    kernel_error_sweep,
)
from rhtsketch.gaussian import gaussian_expectation
from rhtsketch.hadamard import fwht_in_place
from rhtsketch.lab import (
    ball_points,
    basis_max_experiment,
    ecdf_deviation,
    gaussian_baseline_max,
)

from oracles import approx_kernel, embed_serial, naive_hadamard_apply

SEED = 0


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_fwht_correctness(capsys):
    budget = 1.0  # seconds
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_int = 0
    worst_rel = 0.0
    pow2_count = 0
    for d in range(1, 257):
        if d & (d - 1):
            with pytest.raises(ValueError):
                fwht_in_place(np.zeros(d))
            continue
        pow2_count += 1
        ints = rng.integers(-50, 50, size=d).astype(np.float64)
        expected = naive_hadamard_apply(ints)
        got = fwht_in_place(ints.copy())
        worst_int = max(worst_int, int(np.max(np.abs(got - expected))))
        doubles = rng.standard_normal(d)
        ref = naive_hadamard_apply(doubles)
        out = fwht_in_place(doubles.copy())
        scale = np.max(np.abs(ref)) or 1.0
        worst_rel = max(worst_rel, float(np.max(np.abs(out - ref)) / scale))
        twice = fwht_in_place(fwht_in_place(doubles.copy()))
        worst_rel = max(
            worst_rel, float(np.max(np.abs(twice - d * doubles)) / max(scale, 1.0))
        )
    elapsed = time.perf_counter() - start
    ok = worst_int == 0 and worst_rel <= 1e-12 and pow2_count == 9 and elapsed < budget
    report(
        capsys, 1, "fwht correctness",
        ok,
        f"int gap {worst_int}, double rel {worst_rel:.2e}, "
        f"{pow2_count} power-of-two sizes, {elapsed:.2f}/{budget:.1f}s",
    )


def test_criterion_2_embedding_distortion(capsys):
    budget = 5.0  # seconds
    start = time.perf_counter()
    d, m, eps = 256, 1085, 0.2
    assert m == math.ceil(4.0 * (math.log(d) + math.log(200.0)) / eps**2)
    ens = build_ensemble(d, m, SEED)
    base = 1 << 20
    pairs = [
        (
            streams.unit_vector(SEED, base + 2 * p, d),
            streams.unit_vector(SEED, base + 2 * p + 1, d),
        )
        for p in range(100)
    ]
    worst = distortion_check(ens, pairs)
    elapsed = time.perf_counter() - start
    ok = worst <= eps and elapsed < budget
    report(
        capsys, 2, "embedding distortion",
        ok, f"max distortion {worst:.4f} <= {eps}, {elapsed:.2f}/{budget:.1f}s",
    )


def test_criterion_3_cosine_expectation(capsys):
    worst = 0.0
    for sigma in (0.0, 0.5, 1.0, 2.0, 4.0):
        gap = abs(gaussian_expectation(sigma) - math.exp(-0.5 * sigma * sigma))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    report(
        capsys, 3, "cosine expectation identity",
        ok, f"max |quadrature - exp(-s^2/2)| = {worst:.2e} <= 1e-8",
    )


def test_criterion_4_kernel_approximation(capsys):
    budget = 30.0  # seconds
    start = time.perf_counter()
    d, m, n = 64, 2000, 50
    pts = ball_points(n, d, SEED)
    fmap = build_feature_map(build_ensemble(d, m, SEED), SEED)
    sweep = kernel_error_sweep(fmap, list(pts))
    kernel_worst = sweep.max_deviation

    # KER-DEC identity over the same pairs, batched for speed: row p of
    # embed_batch is bit-identical to embed, so these terms match the
    # per-pair helper exactly (spot-checked below).  Pairs go through one
    # reused buffer a block of rows at a time, so memory stays at one block.
    idx_i, idx_j = np.triu_indices(n)
    sum_terms, diff_terms = np.empty(len(idx_i)), np.empty(len(idx_i))
    twice_phases = 2.0 * fmap.phases
    buf = np.empty((32, fmap.ensemble.diagonals.size))
    for lo in range(0, len(idx_i), len(buf)):
        pairs = slice(lo, lo + len(buf))
        xs, ys = pts[idx_i[pairs]], pts[idx_j[pairs]]
        emb = embed_batch(fmap.ensemble, xs + ys, out=buf[: len(xs)])
        emb += twice_phases
        np.cos(emb, out=emb)
        sum_terms[pairs] = emb.mean(axis=1)
        emb = embed_batch(fmap.ensemble, xs - ys, out=buf[: len(xs)])
        np.cos(emb, out=emb)
        diff_terms[pairs] = emb.mean(axis=1)
    rows = np.stack([features(fmap, p) for p in pts])
    approx = np.array(
        [np.dot(rows[i], rows[j]) for i, j in zip(idx_i, idx_j)]
    )
    kerdec_worst = float(np.max(np.abs(sum_terms + diff_terms - approx)))

    spot = np.linspace(0, len(idx_i) - 1, 30).astype(int)
    spot_exact = all(
        kerdec_decompose(fmap, pts[idx_i[p]], pts[idx_j[p]])
        == (float(sum_terms[p]), float(diff_terms[p]))
        for p in spot
    ) and all(
        approx[p] == approx_kernel(fmap, pts[idx_i[p]], pts[idx_j[p]])
        for p in spot[::6]
    )
    elapsed = time.perf_counter() - start
    ok = (
        kernel_worst <= 0.05
        and kerdec_worst <= 1e-10
        and spot_exact
        and elapsed < budget
    )
    report(
        capsys, 4, "kernel approximation",
        ok,
        f"max |approx - rbf| {kernel_worst:.4f} <= 0.05, "
        f"ker-dec gap {kerdec_worst:.1e} <= 1e-10, "
        f"batch/per-pair bitwise agree: {spot_exact}, {elapsed:.1f}/{budget:.0f}s",
    )


def test_criterion_5_distance_estimation(capsys):
    budget = 60.0  # seconds
    start = time.perf_counter()
    d, n, eps, delta = 128, 100, 0.1, 0.01
    m = default_block_count(d, eps, delta)
    pts = np.stack([streams.unit_vector(SEED, i, d) for i in range(n)])
    est = build_estimator(d, m, SEED)
    for row in pts:
        insert(est, row)
    k = default_sample_count(n, eps, delta)

    worst_plain = 0.0
    for qi in range(20):
        q = streams.unit_vector(SEED, 10_000 + qi, d)
        params = QueryParams(
            eps=eps, delta=delta, k=k,
            query_seed=streams.derive_seed(SEED, streams.QUERY, qi),
        )
        estimates = query(est, q, params)
        truth = np.linalg.norm(pts - q, axis=1)
        worst_plain = max(worst_plain, float(np.max(np.abs(estimates / truth - 1.0))))

    stress = adaptive_stress(
        est, 50, "greedy-feedback", SEED, points=pts,
        params=QueryParams(eps=eps, delta=delta, k=k, query_seed=0),
    )
    worst_adaptive = stress.max_deviation

    coincident = query(
        est, pts[0], QueryParams(eps=eps, delta=delta, k=k, query_seed=1)
    )
    coincident_exact = coincident[0] == 0.0

    elapsed = time.perf_counter() - start
    ok = (
        worst_plain <= 0.1
        and worst_adaptive <= 0.1
        and coincident_exact
        and elapsed < budget
    )
    report(
        capsys, 5, "distance estimation",
        ok,
        f"m={m} k={k}, plain rel err {worst_plain:.4f}, "
        f"adaptive rel err {worst_adaptive:.4f} (both <= 0.1), "
        f"coincident exact: {coincident_exact}, {elapsed:.1f}/{budget:.0f}s",
    )


def test_criterion_6_basis_max_and_baseline(capsys):
    budget = 30.0  # seconds
    start = time.perf_counter()
    big = basis_max_experiment(1024, 16, 200, SEED)
    small = basis_max_experiment(64, 16, 200, SEED)
    ratios = [
        big["median"] / math.sqrt(2.0 * math.log(1024) / 16),
        small["median"] / math.sqrt(2.0 * math.log(64) / 16),
    ]
    trend = big["median"] > small["median"]
    factor_ok = all(1 / 1.5 <= r <= 1.5 for r in ratios)

    eps, d = 0.25, 64
    n = math.ceil((2.0 * eps) ** -2 * d)
    baseline = gaussian_baseline_max(n, d, 200, SEED)
    frac = float(np.mean(np.asarray(baseline["per_trial"]) >= eps))
    elapsed = time.perf_counter() - start
    ok = trend and factor_ok and frac >= 0.85 and elapsed < budget
    report(
        capsys, 6, "worst-direction scaling",
        ok,
        f"medians {big['median']:.3f} > {small['median']:.3f}, "
        f"theory ratios {ratios[0]:.2f}/{ratios[1]:.2f} in [0.67, 1.5], "
        f"baseline >= {eps} in {100 * frac:.0f}% of trials, {elapsed:.1f}/{budget:.0f}s",
    )


def test_criterion_7_ecdf_concentration(capsys):
    budget = 20.0  # seconds
    start = time.perf_counter()
    d_flat, m_flat = 256, 1024
    assert m_flat * d_flat == 2**18
    flat = np.full(d_flat, 1.0 / math.sqrt(d_flat))
    sup_flat = ecdf_deviation(build_ensemble(d_flat, m_flat, SEED), flat)

    d_basis, m_basis = 64, 4096
    e1 = np.zeros(d_basis)
    e1[0] = 1.0
    sup_basis = ecdf_deviation(build_ensemble(d_basis, m_basis, SEED), e1)
    elapsed = time.perf_counter() - start
    ok = sup_flat <= 0.01 and sup_basis <= 0.03 and elapsed < budget
    report(
        capsys, 7, "ecdf concentration",
        ok,
        f"flat sup {sup_flat:.4f} <= 0.01, basis sup {sup_basis:.4f} <= 0.03, "
        f"{elapsed:.1f}/{budget:.0f}s",
    )


def test_criterion_8_determinism(capsys):
    argv = [
        "verify", "--d", "64", "--m", "256", "--n-random", "4",
        "--pairs", "20", "--seed", "0",
    ]

    def null_runtimes(node):
        if isinstance(node, dict):
            return {
                key: (0 if key == "runtime_ms" else null_runtimes(value))
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [null_runtimes(item) for item in node]
        return node

    outputs = []
    for _ in range(2):
        code = run(argv)
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        outputs.append(
            json.dumps(null_runtimes(json.loads(captured)), sort_keys=True)
        )
    reports_identical = outputs[0] == outputs[1]

    ens = build_ensemble(100, 16, 3)
    z = streams.unit_vector(3, 0, 100)
    batched = embed(ens, z).values
    serial = embed_serial(ens, z)
    row = embed_batch(ens, z[None, :])[0]
    paths_bitwise = np.array_equal(batched, serial) and np.array_equal(batched, row)

    ok = reports_identical and paths_bitwise
    report(
        capsys, 8, "determinism",
        ok,
        f"repeat verify reports identical modulo timing: {reports_identical}, "
        f"serial/batched embeddings bit-equal: {paths_bitwise}",
    )


def test_criterion_9_fwht_speedup(capsys):
    code = run(["bench", "--d", "4096", "--m", "1", "--seed", "0"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    timings = {row["d"]: row for row in json.loads(captured)["timings"]}
    beats = all(
        timings[d]["embed_ms"] < timings[d]["naive_ms"] for d in (1024, 2048, 4096)
    )
    speedup = timings[4096]["speedup_embed_vs_naive"]
    ok = beats and speedup >= 5.0
    report(
        capsys, 9, "transform speedup",
        ok,
        f"embed beats naive at d in {{1024, 2048, 4096}}: {beats}, "
        f"speedup at 4096 = {speedup:.1f}x >= 5x",
    )

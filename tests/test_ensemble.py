import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rhtsketch import ensemble, hadamard, streams
from rhtsketch.ensemble import (
    build_ensemble,
    distortion_check,
    embed,
    embed_batch,
)
from oracles import embed_serial, naive_hadamard_apply


def test_build_deterministic():
    a = build_ensemble(4, 2, 42)
    b = build_ensemble(4, 2, 42)
    assert_array_equal(a.diagonals, b.diagonals)


def test_build_seed_sensitive():
    a = build_ensemble(4, 2, 42)
    b = build_ensemble(4, 2, 43)
    assert not np.array_equal(a.diagonals, b.diagonals)


def test_build_shapes_and_padding():
    ens = build_ensemble(5, 3, 0)
    assert ens.dim.logical_d == 5 and ens.dim.padded_d == 8
    assert ens.diagonals.shape == (3, 8)
    assert not ens.diagonals.flags.writeable


def test_pooled_diagonal_moments():
    # 4 * 10^4 N(0,1) draws: mean within 4/sqrt(4e4), variance within 5% of 1
    pool = build_ensemble(4, 10**4, 0).diagonals.ravel()
    assert abs(pool.mean()) <= 4.0 / np.sqrt(4e4)
    assert 0.95 <= pool.var() <= 1.05


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_ensemble(0, 2, 0)
    with pytest.raises(ValueError):
        build_ensemble(4, 0, 0)
    with pytest.raises(ValueError, match="overflow"):
        build_ensemble(1 << 40, 1 << 25, 0)


def test_embed_zero_is_zero():
    ens = build_ensemble(6, 4, 1)
    assert_array_equal(embed(ens, np.zeros(6)).values, np.zeros(4 * 8))


def test_embed_basis_vector_gives_constant_blocks():
    # first column of the sign matrix is all ones
    ens = build_ensemble(8, 5, 2)
    e1 = np.zeros(8); e1[0] = 1.0
    emb = embed(ens, e1)
    for j in range(5):
        assert_array_equal(emb.values.reshape(5, 8)[j], np.full(8, ens.diagonals[j, 0]))


def test_embed_matches_naive_oracle():
    # d = 64, m = 64 flat vector: block j is H (D^j z) entrywise
    d, m = 64, 64
    ens = build_ensemble(d, m, 3)
    z = np.ones(d) / np.sqrt(d)
    emb = embed(ens, z)
    for j in range(m):
        expected = naive_hadamard_apply(ens.diagonals[j] * z)
        assert_allclose(emb.values.reshape(m, d)[j], expected, rtol=1e-12, atol=1e-13)


def test_embed_linearity():
    ens = build_ensemble(16, 8, 4)
    x, y = streams.unit_vector(4, 0, 16), streams.unit_vector(4, 1, 16)
    lhs = embed(ens, 2.5 * x - 1.5 * y).values
    rhs = 2.5 * embed(ens, x).values - 1.5 * embed(ens, y).values
    assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_diagonal_identity():
    # ||embedding||^2 = padded_d * sum_j sum_i D_ji^2 z_i^2
    ens = build_ensemble(13, 6, 5)
    z = streams.gaussian_block(5, streams.VECTOR, 9, 13)
    padded = np.zeros(16); padded[:13] = z
    emb = embed(ens, z)
    expected = 16.0 * float(np.sum(ens.diagonals**2 * padded**2))
    assert_allclose(np.sum(emb.values**2), expected, rtol=1e-10)


def test_marginal_variance_basis_and_flat():
    # entries are N(0,1) marginally; effective sample size differs:
    # e_1 gives m distinct values (blocks are constant), flat gives m*d
    m, d = 2048, 64
    ens = build_ensemble(d, m, 11)
    e1 = np.zeros(d); e1[0] = 1.0
    var_basis = embed(ens, e1).values.var()
    assert abs(var_basis - 1.0) <= 5.0 * np.sqrt(2.0 / m)
    var_flat = embed(ens, np.ones(d) / np.sqrt(d)).values.var()
    assert abs(var_flat - 1.0) <= 5.0 * np.sqrt(2.0 / (m * d))


def test_embed_serial_matches_batched_bit_exactly():
    ens = build_ensemble(24, 7, 6)
    z = streams.gaussian_block(6, streams.VECTOR, 0, 24)
    assert_array_equal(embed(ens, z).values, embed_serial(ens, z))


def test_embed_batch_matches_embed_bit_exactly():
    # rows of embed_batch, embed and the per-block reference agree bit for
    # bit, signed zeros included
    for d in (1, 10, 20, 64):
        ens = build_ensemble(d, 5, 7)
        for n in (0, 1, 9):
            zs = np.zeros((n, d))  # row 0 stays the zero vector
            for i in range(1, n):
                zs[i] = streams.gaussian_block(7, streams.VECTOR, i, d)
            batch = embed_batch(ens, zs)
            assert batch.shape == (n, 5 * ens.dim.padded_d)
            for i in range(n):
                for row in (embed(ens, zs[i]).values, embed_serial(ens, zs[i])):
                    assert_array_equal(batch[i], row)
                    assert_array_equal(np.signbit(batch[i]), np.signbit(row))


# (logical d, m, rows) whose outputs span at least three 512 KiB tiles, so
# that 2 and 3 workers split them: one row split over its 1001 blocks, and 7
# rows, which no worker count above 1 divides evenly.
SPLIT_SHAPES = [(200, 1001, 1), (50, 601, 7)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("d,m,rows", SPLIT_SHAPES)
def test_split_embed_batch_matches_per_block_reference(
    d, m, rows, workers, pin_workers, monkeypatch
):
    pin_workers(workers)
    split = []
    real = hadamard._split

    def spy(fn, count, nbytes):
        ranges = []
        split.append(((count, nbytes), ranges))

        def record(start, stop):
            ranges.append((start, stop))
            fn(start, stop)

        real(record, count, nbytes)

    monkeypatch.setattr(hadamard, "_split", spy)
    ens = build_ensemble(d, m, 8)
    zs = np.stack([streams.gaussian_block(8, streams.VECTOR, i, d) for i in range(rows)])
    zs[0, 0] = -0.0
    batch = embed_batch(ens, zs)
    parts = min(workers, 3)
    # the multiply over rows, or over blocks for one row, then the transform
    counts = [m if rows == 1 else rows, rows * m]
    assert [call for call, _ in split] == [(count, batch.nbytes) for count in counts]
    for count, (_, ranges) in zip(counts, split):
        assert sorted(ranges) == [(count * i // parts, count * (i + 1) // parts)
                                  for i in range(parts)]
    for i in range(rows):
        row = embed_serial(ens, zs[i])
        assert_array_equal(batch[i], row)
        assert_array_equal(np.signbit(batch[i]), np.signbit(row))


@pytest.mark.parametrize("transform", ["fwht_in_place", "embed_batch"])
def test_split_starts_at_two_tiles(transform, pin_workers, monkeypatch):
    # 2047 and 2048 rows of 64 floats lie one row either side of two 512 KiB
    # tiles; the kernel-sweep query's single embedding (d=64, m=2000,
    # 1,024,000 bytes) lies just under the line
    def run(rows):
        if transform == "fwht_in_place":
            hadamard.fwht_in_place(np.ones((rows, 64)))
        else:
            embed_batch(build_ensemble(64, rows, 0), np.ones((1, 64)))

    pin_workers(3)
    with monkeypatch.context() as patch:
        patch.delattr(hadamard, "_WORKERS")  # under two tiles: one compare, no count read
        run(2047)
    assert hadamard._pool.cache_info().currsize == 0
    run(2048)
    assert hadamard._pool.cache_info().currsize == 1


def _embed_batch_peak():
    ens = build_ensemble(50, 256, 0)
    zs = np.stack([streams.gaussian_block(0, streams.VECTOR, i, 50) for i in range(32)])
    embed_batch(ens, zs)  # a split call builds the pool outside the trace
    tracemalloc.start()
    try:
        out = embed_batch(ens, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 32 * 256 * 64 * 8
    return peak - out.nbytes - 32 * 64 * 8


def test_embed_batch_peak_memory_is_output_plus_padded_input(pin_workers):
    # no full-size temporary beside the output: tracemalloc's peak stays
    # within the output, the n x padded_d padded copy of the input and 1 MiB
    pin_workers(1)
    assert _embed_batch_peak() <= 1 << 20


def test_embed_batch_peak_memory_adds_one_tile_per_worker(pin_workers):
    # the 4 MiB output is split in two, and each half has its own tile
    pin_workers(2)
    assert _embed_batch_peak() <= (1 << 20) + hadamard._TILE_BYTES


def test_forked_child_runs_its_own_split(pin_workers):
    # the child inherits the parent's started pool without its threads; it
    # must build its own rather than wait on threads that do not exist
    pin_workers(2)
    ens = build_ensemble(128, 600, 1)
    zs = np.stack([streams.gaussian_block(1, streams.VECTOR, i, 128) for i in range(2)])
    want = embed_batch(ens, zs)
    assert hadamard._pool.cache_info().currsize == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with live threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(embed_batch(ens, zs), want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("forked child still blocked after 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_embed_batch_writes_into_out():
    ens = build_ensemble(20, 7, 3)
    zs = np.stack([streams.gaussian_block(3, streams.VECTOR, i, 20) for i in range(3)])
    store = np.full((5, 7 * 32), -1.0)
    got = embed_batch(ens, zs, out=store[1:4])
    assert np.shares_memory(got, store)
    assert_array_equal(store[1:4], embed_batch(ens, zs))
    assert np.all(store[[0, 4]] == -1.0)
    for bad in (np.empty((3, 7 * 32), dtype=np.float32), np.empty((2, 7 * 32)),
                np.empty((3, 2 * 7 * 32))[:, ::2], [[0.0] * (7 * 32)] * 3):
        with pytest.raises(ValueError, match="out must be"):
            embed_batch(ens, zs, out=bad)
    with pytest.raises(ValueError, match="finite"):
        embed_batch(ens, np.full((3, 20), np.nan), out=store[1:4])
    assert_array_equal(store[1:4], embed_batch(ens, zs))  # rejected input wrote nothing


def test_embed_rejects_bad_input():
    ens = build_ensemble(8, 2, 0)
    with pytest.raises(ValueError, match="entries"):
        embed(ens, np.zeros(7))
    with pytest.raises(ValueError, match="finite"):
        embed(ens, np.array([np.nan] + [0.0] * 7))
    with pytest.raises(ValueError):
        embed_batch(ens, np.zeros((3, 7)))
    with pytest.raises(ValueError):
        embed_batch(ens, np.full((3, 8), np.inf))


def test_distortion_closed_form_for_basis_pair():
    # pair (e_1, 0): the ratio collapses to sqrt(mean of squared first
    # diagonal entries), straight from the stored diagonals
    ens = build_ensemble(32, 50, 8)
    e1 = np.zeros(32); e1[0] = 1.0
    got = distortion_check(ens, [(e1, np.zeros(32))])
    expected = abs(np.sqrt(np.mean(ens.diagonals[:, 0] ** 2)) - 1.0)
    assert_allclose(got, expected, rtol=1e-12)


def test_distortion_scale_invariant_along_a_direction():
    ens = build_ensemble(16, 40, 9)
    x = streams.unit_vector(9, 3, 16)
    e1 = np.zeros(16); e1[0] = 1.0
    d1 = distortion_check(ens, [(x, x + 1.0 * e1)])
    d2 = distortion_check(ens, [(x, x + 2.0 * e1)])
    assert_allclose(d1, d2, rtol=1e-10, atol=1e-12)


def test_distortion_embeds_each_pair_once(monkeypatch):
    ens = build_ensemble(20, 6, 3)
    pairs = [(streams.unit_vector(3, 2 * p, 20), streams.unit_vector(3, 2 * p + 1, 20))
             for p in range(5)]
    calls = []

    def counting_embed(ensemble_, z, **kwargs):
        calls.append(z)
        return embed(ensemble_, z, **kwargs)

    monkeypatch.setattr(ensemble, "embed", counting_embed)
    distortion_check(ens, pairs)
    assert len(calls) == len(pairs)


@pytest.mark.parametrize("d", [20, 64, 256])
def test_distortion_matches_two_embedding_definition(d):
    ens = build_ensemble(d, 17, d)
    scale = np.sqrt(ens.m * ens.dim.padded_d)
    worst = 0.0
    pairs = []
    for p in range(8):
        x = streams.unit_vector(d, 2 * p, d)
        y = streams.unit_vector(d, 2 * p + 1, d)
        pairs.append((x, y))
        ratio = np.linalg.norm(embed(ens, x).values - embed(ens, y).values) / (
            scale * np.linalg.norm(x - y))
        worst = max(worst, abs(ratio - 1.0))
    assert_allclose(distortion_check(ens, pairs), worst, rtol=1e-12)


def test_distortion_rejects_degenerate_input():
    ens = build_ensemble(8, 2, 0)
    with pytest.raises(ValueError, match="nonempty"):
        distortion_check(ens, [])
    x = streams.unit_vector(0, 0, 8)
    with pytest.raises(ValueError, match="coincident"):
        distortion_check(ens, [(x, x.copy())])

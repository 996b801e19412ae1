import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rhtsketch import hadamard
from rhtsketch.hadamard import (
    HadamardDim,
    fwht_in_place,
    hadamard_sign_matrix,
    next_pow2,
)

from oracles import naive_hadamard_apply

POW2_UP_TO_256 = [1, 2, 4, 8, 16, 32, 64, 128, 256]


def test_sign_matrix_is_orthogonal_up_to_scale():
    # the oracle validates itself: H^T H = d*I, entries all +-1
    for d in POW2_UP_TO_256[:7]:
        h = hadamard_sign_matrix(d)
        assert set(np.unique(h)) <= {-1.0, 1.0}
        assert_array_equal(h.T @ h, d * np.eye(d))


def test_sign_matrix_recursion():
    # H_{2n} = [[H_n, H_n], [H_n, -H_n]]
    for d in (1, 2, 4, 8, 16):
        h = hadamard_sign_matrix(d)
        h2 = hadamard_sign_matrix(2 * d)
        assert_array_equal(h2[:d, :d], h)
        assert_array_equal(h2[:d, d:], h)
        assert_array_equal(h2[d:, :d], h)
        assert_array_equal(h2[d:, d:], -h)


@pytest.mark.parametrize("d", POW2_UP_TO_256)
def test_fwht_matches_naive_bit_exactly_on_integers(d):
    rng = np.random.default_rng(d)
    x = rng.integers(-(1 << 20), 1 << 20, size=d).astype(np.float64)
    out = fwht_in_place(x.copy())
    assert_array_equal(out, naive_hadamard_apply(x))


@pytest.mark.parametrize("d", POW2_UP_TO_256)
def test_fwht_matches_naive_on_doubles(d):
    rng = np.random.default_rng(1000 + d)
    x = rng.normal(size=d)
    out = fwht_in_place(x.copy())
    scale = np.abs(naive_hadamard_apply(x)).max() + 1e-300
    assert np.abs(out - naive_hadamard_apply(x)).max() / scale < 1e-12


@pytest.mark.parametrize("d", POW2_UP_TO_256)
def test_fwht_involution(d):
    # H(Hx) = d*x
    rng = np.random.default_rng(2000 + d)
    x = rng.integers(-1000, 1000, size=d).astype(np.float64)
    twice = fwht_in_place(fwht_in_place(x.copy()))
    assert_array_equal(twice, d * x)


def test_fwht_d1_is_identity():
    x = np.array([3.5])
    assert_array_equal(fwht_in_place(x.copy()), x)


def test_fwht_mutates_in_place_and_returns_buffer():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = fwht_in_place(x)
    assert out is x
    assert_array_equal(x, naive_hadamard_apply([1.0, 2.0, 3.0, 4.0]))


def test_fwht_batched_last_axis():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(5, 16))
    out = fwht_in_place(batch.copy())
    for i in range(5):
        assert_allclose(out[i], naive_hadamard_apply(batch[i]), rtol=1e-12, atol=0)


@given(st.integers(0, 3), st.integers(0, 2**31))
def test_fwht_linear(log_d, seed):
    d = 1 << log_d
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, size=d).astype(np.float64)
    y = rng.integers(-100, 100, size=d).astype(np.float64)
    lhs = fwht_in_place(3.0 * x + y)
    rhs = 3.0 * fwht_in_place(x.copy()) + fwht_in_place(y.copy())
    assert_array_equal(lhs, rhs)


def reference_butterfly(row):
    """The untiled butterfly on one row: stage h pairs entries i and i + h."""
    row = row.copy()
    n = row.shape[0]
    h = 1
    while h < n:
        view = row.reshape(n // (2 * h), 2, h)
        top = view[:, 0]
        bot = view[:, 1]
        top += bot
        bot *= -2
        bot += top
        h *= 2
    return row


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([8, 64, 1000, 4096, 1 << 15, hadamard._TILE_BYTES]),
    st.sampled_from([(), (0,), (1,), (3,), (10,), (2, 3)]),
    st.integers(0, 14),
    st.integers(0, 2**31),
)
def test_tiled_fwht_bit_identical_to_per_row_butterfly(tile_bytes, lead, log_d, seed):
    d = 1 << log_d
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (d,))
    x.reshape(-1, d)[::2, 0] = -0.0  # signed zeros must survive too
    ints = rng.integers(-(1 << 20), 1 << 20, size=lead + (d,))
    with mock.patch.object(hadamard, "_TILE_BYTES", tile_bytes):
        out = fwht_in_place(x.copy())
        out_ints = fwht_in_place(ints.astype(np.float64))
    ref = np.array([reference_butterfly(r) for r in x.reshape(-1, d)]).reshape(x.shape)
    assert_array_equal(out, ref)
    assert_array_equal(np.signbit(out), np.signbit(ref))
    # integer exactness: the float transform equals int64 arithmetic
    exact = np.array([reference_butterfly(r) for r in ints.reshape(-1, d)])
    assert_array_equal(out_ints, exact.reshape(ints.shape).astype(np.float64))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tiled_fwht_bit_identical_at_each_worker_count(workers, pin_workers):
    # the patched tile sizes make most of its buffers span several tiles,
    # so at 2 and 3 workers they are split by rows
    pin_workers(workers)
    test_tiled_fwht_bit_identical_to_per_row_butterfly()


MEMORY_SHAPES = [(40, 100, 64), (8, 16, 256), (2, 65536), (3000, 32)]


def _fwht_peak(shape):
    buf = np.random.default_rng(0).standard_normal(shape)
    bufsize = np.getbufsize()
    fwht_in_place(buf.copy())  # a split call builds the pool outside the trace
    tracemalloc.start()
    try:
        fwht_in_place(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.getbufsize() == bufsize
    return peak


@pytest.mark.parametrize("shape", MEMORY_SHAPES)
def test_fwht_peak_memory_is_one_tile(shape, pin_workers):
    pin_workers(1)
    assert _fwht_peak(shape) <= hadamard._TILE_BYTES + (64 << 10)


@pytest.mark.parametrize("shape", MEMORY_SHAPES)
def test_fwht_peak_memory_is_one_tile_per_worker(shape, pin_workers):
    # (40, 100, 64) and (2, 65536) are split in two, each half with its tile
    pin_workers(2)
    assert _fwht_peak(shape) <= 2 * hadamard._TILE_BYTES + (64 << 10)


@pytest.mark.parametrize("bad", [0, 1])
def test_split_waits_for_every_range_and_reraises(bad, pin_workers):
    # range 0 runs on the calling thread, range 1 on a pool thread
    pin_workers(3)
    done = []

    def part(i, start, stop):
        time.sleep(0.05 * i)
        done.append((start, stop))
        if i == bad:
            raise RuntimeError(f"range {i}")

    with pytest.raises(RuntimeError, match=f"range {bad}"):
        hadamard._split(part, 10, 3)
    assert sorted(done) == [(0, 3), (3, 6), (6, 10)]


@pytest.mark.parametrize("n", [3, 5, 6, 12, 100])
def test_fwht_rejects_non_power_of_two(n):
    with pytest.raises(ValueError, match="power of two"):
        fwht_in_place(np.zeros(n))


def test_fwht_rejects_non_contiguous_and_non_array():
    with pytest.raises(ValueError, match="contiguous"):
        fwht_in_place(np.zeros((4, 8))[:, ::2])
    with pytest.raises(TypeError):
        fwht_in_place([1.0, 2.0])


def test_next_pow2():
    assert next_pow2(1) == HadamardDim(1, 1)
    assert next_pow2(2) == HadamardDim(2, 2)
    assert next_pow2(5) == HadamardDim(5, 8)
    assert next_pow2(64) == HadamardDim(64, 64)
    assert next_pow2(65) == HadamardDim(65, 128)


@pytest.mark.parametrize("bad", [0, -1, -64])
def test_next_pow2_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        next_pow2(bad)


def test_next_pow2_rejects_huge():
    with pytest.raises(ValueError, match="too large"):
        next_pow2(1 << 60)


def test_sign_matrix_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        hadamard_sign_matrix(12)

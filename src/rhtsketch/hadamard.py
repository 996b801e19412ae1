"""Fast Walsh-Hadamard transform in the unnormalized +-1 convention.

``H_1 = [1]`` and ``H_2n = [[H_n, H_n], [H_n, -H_n]]``, so ``H^T H = d * I``
with no 1/sqrt(d) factor anywhere inside the transform.  Callers that need an
isometry apply their own normalization.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HadamardDim:
    """A logical dimension together with its power-of-two padding."""

    logical_d: int
    padded_d: int


# padded_d must stay well inside the addressable index range once multiplied
# by a block count; 2**48 leaves room for m up to 2**15 before intp overflow.
_MAX_PADDED = 1 << 48


def next_pow2(logical_d: int) -> HadamardDim:
    """Smallest power of two >= logical_d, as a HadamardDim."""
    if logical_d < 1:
        raise ValueError(f"dimension must be positive, got {logical_d}")
    if logical_d > _MAX_PADDED:
        raise ValueError(f"dimension too large: {logical_d}")
    padded = 1 << (int(logical_d) - 1).bit_length()
    return HadamardDim(logical_d=int(logical_d), padded_d=padded)


# One scratch tile per worker, one worker per CPU: 512 KiB, a quarter of a
# 2 MiB per-core L2, gives every butterfly add long inner loops.
_TILE_BYTES = 512 << 10
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _pool():
    """Threads that, with the caller, make one per CPU in the affinity mask."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS - 1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)  # a child has none of the threads


def fwht_in_place(buffer: np.ndarray) -> np.ndarray:
    """Apply the transform along the last axis of ``buffer``, in place.

    The last axis length must be a power of two and the array C-contiguous
    (the butterfly works on reshaped views).  Integer-valued inputs transform
    exactly: every butterfly step is an add, a multiply by -2, and an add,
    all of which are exact in float64 until entries approach 2**53.
    Stages h < c run on runs of c entries copied, transposed, into a tile
    of at most 512 KiB, the rest on the buffer; c = min(n, 256), halved
    while the buffer holds fewer than c / 4 runs.  When the runs span
    several tiles, each holds one run fewer than fits, so that its row
    stride is not a power of two (such strides share L1 sets).  Buffers of
    two or more tiles are split by rows over worker threads, one tile each
    (workers * 512 KiB), no element's operations changing.  Returns ``buffer``.
    """
    if not isinstance(buffer, np.ndarray):
        raise TypeError("fwht_in_place needs an ndarray to mutate")
    n = buffer.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"last axis length must be a power of two, got {n}")
    if not buffer.flags.c_contiguous:
        raise ValueError("buffer must be C-contiguous for in-place transform")
    c = min(n, 256)
    while c * c > 4 * buffer.size and c > 1:  # keep >= c / 4 runs per tile
        c //= 2
    runs = buffer.size // c
    most = _TILE_BYTES // (c * buffer.itemsize)
    cols = max(1, runs if runs <= most else most - 1)
    if buffer.nbytes < 2 * _TILE_BYTES:
        _transform(buffer, np.empty(c * cols, dtype=buffer.dtype), c, cols)
        return buffer
    rows = buffer.reshape(-1, n)
    parts = min(_WORKERS, len(rows), buffer.nbytes // _TILE_BYTES)
    tiles = [np.empty(c * cols, dtype=buffer.dtype) for _ in range(parts)]
    _split(lambda i, a, b: _transform(rows[a:b], tiles[i], c, cols), len(rows), parts)
    return buffer


def _split(fn, count: int, parts: int) -> None:
    """fn(i, start, stop) over ``parts`` ranges of range(count); fn calls no public name."""
    bounds = [count * i // parts for i in range(parts + 1)]
    futures = [_pool().submit(fn, i, bounds[i], bounds[i + 1]) for i in range(1, parts)]
    try:
        fn(0, 0, bounds[1])  # on the calling thread
    finally:
        errors = [future.exception() for future in futures]  # waits, even if range 0 raised
    for error in filter(None, errors):
        raise error


def _transform(rows: np.ndarray, scratch: np.ndarray, c: int, cols: int) -> None:
    """fwht_in_place on the C-contiguous ``rows``, in tiles of cols runs in scratch."""
    runs = rows.reshape(-1, c)
    # numpy would copy the strided halves through up to 192 KiB of iterator
    # buffers, slower than the adds; no operand needs a cast, so go direct.
    bufsize = np.setbufsize(16)
    try:
        for start in range(0, len(runs), cols):
            block = runs[start : start + cols]
            tile = scratch[: block.size].reshape(c, len(block))
            np.copyto(tile, block.T)
            _butterfly(tile, len(block), 1, c)
            np.copyto(block, tile.T)
        _butterfly(rows, 1, c, rows.shape[-1])
    finally:
        np.setbufsize(bufsize)


def _butterfly(array: np.ndarray, unit: int, h: int, stop: int) -> None:
    """Stages h, 2h, ... < stop, each pairing slabs of h * unit entries."""
    while h < stop:
        view = array.reshape(-1, 2, h * unit)
        top = view[:, 0]
        bot = view[:, 1]
        # (top, bot) <- (top + bot, top - bot) without a temporary:
        top += bot
        bot *= -2
        bot += top
        h *= 2


def hadamard_sign_matrix(d: int) -> np.ndarray:
    """The dense d x d +-1 matrix, H[k, i] = (-1)^popcount(k & i)."""
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError(f"order must be a power of two, got {d}")
    import scipy.linalg

    return scipy.linalg.hadamard(d, dtype=np.float64)

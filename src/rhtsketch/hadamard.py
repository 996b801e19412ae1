"""Fast Walsh-Hadamard transform in the unnormalized +-1 convention.

``H_1 = [1]`` and ``H_2n = [[H_n, H_n], [H_n, -H_n]]``, so ``H^T H = d * I``
with no 1/sqrt(d) factor anywhere inside the transform.  Callers that need an
isometry apply their own normalization.
"""

from __future__ import annotations

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


# One scratch tile per call: 512 KiB, a quarter of a 2 MiB per-core L2, gives
# every butterfly add long inner loops and leaves peak RSS flat.
_TILE_BYTES = 512 << 10


def fwht_in_place(buffer: np.ndarray) -> np.ndarray:
    """Apply the transform along the last axis of ``buffer``, in place.

    The last axis length must be a power of two and the array C-contiguous
    (the butterfly works on reshaped views).  Integer-valued inputs transform
    exactly: every butterfly step is an add, a multiply by -2, and an add,
    all of which are exact in float64 until entries approach 2**53.
    Stages h < c run on runs of c entries copied, transposed, into one tile
    of at most 512 KiB, the rest on the buffer; c = min(n, 256), halved
    while the buffer holds fewer than c / 4 runs.  When the runs span
    several tiles, each holds one run fewer than fits, so that its row
    stride is not a power of two (such strides share L1 sets).  Tiling
    changes no element's operations or their order.  Returns ``buffer``.
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
    runs = buffer.reshape(-1, c)
    most = _TILE_BYTES // (c * buffer.itemsize)
    cols = max(1, len(runs) if len(runs) <= most else most - 1)
    scratch = np.empty(c * cols, dtype=buffer.dtype)
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
        _butterfly(buffer, 1, c, n)
    finally:
        np.setbufsize(bufsize)
    return buffer


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

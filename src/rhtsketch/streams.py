"""Counter-based random streams.

Every random draw in this package comes from a Philox generator keyed by
``(seed, purpose, index)``.  Purposes partition the key space so that, e.g.,
the diagonal entries of block 3 never collide with the phase vector of block 3
under the same user seed.  Streams are independent of draw order: block j can
be generated without generating blocks 0..j-1 first.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Stored in the high bits of the second key word; the low 56
# bits carry the index, so indices up to 2**56 - 1 are addressable per purpose.
DIAGONAL = 0
PHASE = 1
QUERY = 2
VECTOR = 3
TRIAL = 4

_INDEX_BITS = 56
_INDEX_MAX = (1 << _INDEX_BITS) - 1
_MASK64 = (1 << 64) - 1


def generator(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Return the Generator for stream ``(seed, purpose, index)``.

    The same triple always yields the same stream, on any platform numpy's
    Philox implementation covers.
    """
    if not 0 <= index <= _INDEX_MAX:
        raise ValueError(f"stream index out of range: {index}")
    if not 0 <= purpose < (1 << 8):
        raise ValueError(f"purpose tag out of range: {purpose}")
    key = np.array(
        [int(seed) & _MASK64, (purpose << _INDEX_BITS) | index],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def stream_rows(seed: int, purpose: int, count: int, n: int, draw) -> np.ndarray:
    """A (count, n) array whose row j is draw(generator(seed, purpose, j), n).

    Rather than building a generator per row, one Philox is given row j's
    full fresh state (zero counter and buffer, row j's key) before each draw.
    ``draw`` is e.g. ``np.random.Generator.standard_normal``.
    """
    gen = generator(seed, purpose, max(count - 1, 0))  # checks the largest index
    fresh = gen.bit_generator.state
    out = np.empty((count, n), dtype=np.float64)
    for j in range(count):
        fresh["state"]["key"][1] = (purpose << _INDEX_BITS) | j
        gen.bit_generator.state = fresh
        out[j] = draw(gen, n)
    return out


def gaussian_block(seed: int, purpose: int, index: int, n: int) -> np.ndarray:
    """n i.i.d. standard normal variates from stream (seed, purpose, index)."""
    return generator(seed, purpose, index).standard_normal(n)


def unit_vector(seed: int, index: int, n: int) -> np.ndarray:
    """gaussian_block(seed, VECTOR, index, n) scaled to unit norm."""
    g = gaussian_block(seed, VECTOR, index, n)
    return g / np.linalg.norm(g)


def uniform_angles(seed: int, purpose: int, index: int, n: int) -> np.ndarray:
    """n i.i.d. variates uniform on [0, 2*pi) from the given stream."""
    # random() < 1, and (1 - 2**-53) * 2*pi still rounds below 2*pi, so the
    # upper endpoint is never produced.
    return generator(seed, purpose, index).random(n) * (2.0 * np.pi)


def derive_seed(seed: int, purpose: int, index: int) -> int:
    """Deterministically derive a child seed for stream (seed, purpose, index)."""
    return int(generator(seed, purpose, index).integers(0, 1 << 63))

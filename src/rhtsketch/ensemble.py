"""Ensembles of randomized Hadamard transforms with Gaussian diagonals.

An ensemble is m independent diagonal matrices D^j with i.i.d. N(0, 1)
entries.  The embedding of z stacks the m blocks H(D^j z) into one vector of
length m * padded_d; each entry is marginally N(0, ||z||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hadamard, streams
from .hadamard import HadamardDim, fwht_in_place, next_pow2


@dataclass(frozen=True)
class RhtEnsemble:
    """m blocks of N(0,1) diagonals over a padded dimension.

    ``diagonals`` has shape (m, padded_d), row j holding diag(D^j).  The
    array is read-only; rebuilding from (dim, m, seed) reproduces it
    bit-exactly.
    """

    dim: HadamardDim
    m: int
    seed: int
    diagonals: np.ndarray


@dataclass(frozen=True)
class Embedding:
    """embed's result: the blocks H(D^j z) of one z, stacked and flattened.

    ``values`` has length m * padded_d; block j is entries
    [j * padded_d, (j + 1) * padded_d).
    """

    values: np.ndarray


def build_ensemble(logical_d: int, m: int, seed: int) -> RhtEnsemble:
    """Draw the m diagonal blocks for dimension logical_d.

    Block j comes from the stream keyed (seed, DIAGONAL, j), coordinate i
    being the i-th variate of that stream, so blocks are independent and can
    be regenerated individually.
    """
    dim = next_pow2(logical_d)
    if m < 1:
        raise ValueError(f"block count must be positive, got {m}")
    total = m * dim.padded_d
    if total > np.iinfo(np.intp).max // 8:
        raise ValueError(f"m * padded_d = {total} overflows addressable size")
    diagonals = streams.stream_rows(
        seed, streams.DIAGONAL, m, dim.padded_d, np.random.Generator.standard_normal
    )
    diagonals.setflags(write=False)
    return RhtEnsemble(dim=dim, m=m, seed=int(seed), diagonals=diagonals)


def embed_batch(ensemble: RhtEnsemble, zs: np.ndarray, *, out=None) -> np.ndarray:
    """Embeddings for the rows of zs, as an (n, m * padded_d) matrix.

    Row i is bit-identical to embed(ensemble, zs[i]).values.  The products
    D^j z_i, z_i zero-padded to padded_d, are multiplied into the output and
    transformed there in place, so memory is the n * m * padded_d output
    plus n * padded_d floats of padded input plus a 512 KiB tile per worker
    thread; large multiplies split like the FWHT, by rows (blocks if n = 1).
    ``out``, a C-contiguous float64 (n, m * padded_d) array, receives the
    embeddings in place of a new array and is returned; zs is checked first.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 2 or zs.shape[1] != ensemble.dim.logical_d:
        raise ValueError(
            f"expected {ensemble.dim.logical_d} entries per vector, got shape {zs.shape}"
        )
    if not np.all(np.isfinite(zs)):
        raise ValueError("input has non-finite entries")
    rows = (len(zs), ensemble.diagonals.size)
    if out is None:
        out = np.empty(rows, dtype=np.float64)
    elif not (
        isinstance(out, np.ndarray)
        and (out.shape, out.dtype) == (rows, np.float64)
        and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {rows}")
    blocks = out.reshape((len(zs),) + ensemble.diagonals.shape)  # a view: out is C-contiguous
    padded = np.zeros((zs.shape[0], ensemble.dim.padded_d), dtype=np.float64)
    padded[:, : ensemble.dim.logical_d] = zs
    if out.nbytes < 2 * hadamard._TILE_BYTES:
        np.multiply(ensemble.diagonals, padded[:, None, :], out=blocks)
    else:
        count = len(zs) if len(zs) > 1 else ensemble.m
        parts = min(hadamard._WORKERS, count, out.nbytes // hadamard._TILE_BYTES)
        if len(zs) > 1:
            hadamard._split(lambda i, a, b: np.multiply(
                ensemble.diagonals, padded[a:b, None, :], out=blocks[a:b]), count, parts)
        else:
            hadamard._split(lambda i, a, b: np.multiply(
                ensemble.diagonals[a:b], padded, out=blocks[0, a:b]), count, parts)
    fwht_in_place(blocks)
    return out


def embed(ensemble: RhtEnsemble, z: np.ndarray) -> Embedding:
    """Compute the stacked embedding of z, zero-padding to padded_d.

    This is row 0 of embed_batch.  It is bit-identical to transforming the
    blocks D^j z one at a time, the per-block reference the tests check it
    against: the batched butterfly applies the same elementwise operations.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected {ensemble.dim.logical_d} entries, got shape {z.shape}")
    return Embedding(embed_batch(ensemble, z[None, :])[0])


def distortion_check(
    ensemble: RhtEnsemble, pairs: list[tuple[np.ndarray, np.ndarray]]
) -> float:
    """Worst relative distortion |  ||h(x)-h(y)|| / (sqrt(m*d)*||x-y||) - 1 |.

    The normalizer's d is padded_d.  By linearity h(x) - h(y) = h(x - y), so
    each pair costs one transform.  Pairs must be distinct: a coincident pair
    has no defined distortion.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    scale = np.sqrt(ensemble.m * ensemble.dim.padded_d)
    worst = 0.0
    for x, y in pairs:
        diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
        gap = np.linalg.norm(diff)
        if gap == 0.0:
            raise ValueError("coincident pair: distortion is undefined")
        norm = np.linalg.norm(embed(ensemble, diff).values)
        worst = max(worst, abs(norm / (scale * gap) - 1.0))
    return float(worst)

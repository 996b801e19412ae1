"""Ensembles of randomized Hadamard transforms with Gaussian diagonals.

An ensemble is m independent diagonal matrices D^j with i.i.d. N(0, 1)
entries.  The embedding of z stacks the m blocks H(D^j z) into one vector of
length m * padded_d; each entry is marginally N(0, ||z||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .hadamard import HadamardDim, fwht_in_place, next_pow2

SCHEMA_VERSION = 1


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


def _scaled_blocks(ensemble: RhtEnsemble, zs: np.ndarray, out=None) -> np.ndarray:
    """The (n, m, padded_d) products D^j z_i, z_i zero-padded to padded_d.

    Written into embed_batch's ``out`` when given, else into a new array.
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
    out = out.reshape((len(zs),) + ensemble.diagonals.shape)  # a view: out is C-contiguous
    padded = np.zeros((zs.shape[0], ensemble.dim.padded_d), dtype=np.float64)
    padded[:, : ensemble.dim.logical_d] = zs
    np.multiply(ensemble.diagonals, padded[:, None, :], out=out)
    return out


def embed(ensemble: RhtEnsemble, z: np.ndarray, *, serial: bool = False) -> Embedding:
    """Compute the stacked embedding of z, zero-padding to padded_d.

    This is row 0 of embed_batch.  ``serial=True`` transforms the blocks one
    at a time instead: it is the per-block reference that the batched
    butterfly is checked against, bit for bit (the butterfly applies the same
    elementwise operations either way).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected {ensemble.dim.logical_d} entries, got shape {z.shape}")
    if serial:
        values = _scaled_blocks(ensemble, z[None, :])[0]
        for block in values:
            fwht_in_place(block)
    else:
        values = embed_batch(ensemble, z[None, :])[0]
    return Embedding(values.reshape(-1))


def embed_batch(ensemble: RhtEnsemble, zs: np.ndarray, *, out=None) -> np.ndarray:
    """Embeddings for the rows of zs, as an (n, m * padded_d) matrix.

    Row i is bit-identical to embed(ensemble, zs[i]).values: the batched
    butterfly applies the same elementwise operations per row.  The rows are
    multiplied into the output and transformed there in place, so memory is
    the n * m * padded_d output plus n * padded_d floats of padded input
    plus the butterfly's one tile of at most 512 KiB.  ``out``, a
    C-contiguous float64 (n, m * padded_d) array, receives the embeddings
    in place of a new array, and the result is a view of it; zs is checked
    before ``out`` is written.
    """
    blocks = _scaled_blocks(ensemble, zs, out)
    fwht_in_place(blocks)
    return blocks.reshape(-1, ensemble.diagonals.size)


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

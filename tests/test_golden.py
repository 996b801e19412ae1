"""Committed SHA-256 digests of transform, embedding, query and verify outputs.

The digests cover the raw little-endian bytes of every output, so values and
sign bits both count.  Inputs come from Philox draws of random() - 0.5, and
every output is built from IEEE add, subtract, multiply, selection and
numpy's pairwise mean, so the digests hold on any platform numpy covers.
Nothing goes through BLAS or a transcendental, apart from the diagonals'
normal draws: numpy's ziggurat sampler calls exp and log1p on its rare wedge
and tail draws, and numpy keeps that stream the same across platforms.  A
change that moves one output names it in the failure.  The ``verify``
report is the exception: see VERIFY_GOLDEN.
"""

import hashlib
import math

import numpy as np
import pytest

from rhtsketch import streams
from rhtsketch.cli import run
from rhtsketch.distance import QueryParams, build_estimator, insert, query
from rhtsketch.ensemble import build_ensemble, embed, embed_batch
from rhtsketch.hadamard import fwht_in_place

from oracles import embed_serial

# Buffer shapes for fwht_in_place: a lone entry, one row tiled narrower than
# its length, a 301-run single tile, a 160-run single tile of runs of 256 and
# a 3-D buffer.
FWHT_SHAPES = [(1, 1), (1, 256), (3, 1024), (301, 32), (5, 8192), (2, 3, 64)]

# Buffers that span several 512 KiB tiles with an uneven last tile:
# 4 x 255 + 65, 14 x 511 + 412 and 5 x 1023 + 885 runs.
FWHT_TILE_SHAPES = [(1085, 256), (7566, 128), (3, 2000, 64)]

FWHT_BUFFERS = {"fwht_in_place": FWHT_SHAPES, "fwht_in_place_tiles": FWHT_TILE_SHAPES}

# (logical d, m, rows) for the embedding paths; all three pad d.
EMBED_SHAPES = [(5, 3, 4), (20, 6, 3), (200, 17, 3)]

# (logical d, m, rows) whose embed_batch outputs span three 512 KiB tiles,
# so that 2 and 3 workers split them: one row over its blocks, and 7 rows.
EMBED_SPLIT_SHAPES = [(200, 1001, 1), (50, 601, 7)]

# The three embedding paths are bit-identical, so they share one digest.
EMBEDDINGS = "3c6a0c863978d15bfd5aeb95ae947e1cd1e06441c90c11c75643a46bbc0d5a07"

TRANSFORM_GOLDEN = {
    "stream_rows": "7902b5fa827293fd1e8ae52fe2cce9a72855e4ac91eb78e08ef2bac5bc208a4a",
    "fwht_in_place": "e8dda4c023fe796fba1d095f0fd81993f3e522b06a4d59bb40dad14e9829e70c",
    "fwht_in_place_tiles": "6844048302c927d6b6693e59b69b1663af4ad32586988b46c6e6d4f58fc4ff8a",
    "embed": EMBEDDINGS,
    "embed_serial": EMBEDDINGS,
    "embed_batch": EMBEDDINGS,
    "embed_batch_split": "13d29df5c7f07d93ec8d708210d59702d797e42353c25e904b6e7f1e0acb0719",
}

# (d, m, points per storage chunk, k): rows of 514 KiB fit 8 to a chunk, rows
# of 8 KiB fit 64.  At k = 101 the truncation quantile is each row's maximum;
# at k = 1001 its rank is k - 1, so it comes from the partition.
SHAPES = [(256, 257, 8, 101), (16, 64, 64, 101), (16, 64, 64, 1001)]

GOLDEN = {
    (256, 257, 8, 101): {
        "indices": "8d4ac6c491bacb23da0074349d38b5fce2c5612c13865aa9f57e6ee31268bd0d",
        "estimates": "ca88a33725de6ee1ec608edabb6c2382afa4710b423d9dd44bae58a35b8073d7",
        "quantiles": "76766009a64cc255f6b443d6fedf1d63bd80cbf8125271bf815cc7975581c1d6",
        "radii": "f3c09f8dcb6072cd6fa5962b07ac10dc60c7a42133b60f5a9c96ef58dddfb97b",
    },
    (16, 64, 64, 101): {
        "indices": "44cbf02508fa79128c260bf379f095afa85be24ef6d90f282b328fbeb7501af4",
        "estimates": "8ca4e0024126e980165932e3ff42aadd106c58cd4b7cf3aef2a4259d79d34b39",
        "quantiles": "4407936005b014d7e1a3fd2ce9c01bcef6161d4607d40d26769c1ec4ec3f2514",
        "radii": "db78cf053aaec4f72fdb703d4019543a9591b5913a16f0fc8f29318293ea4112",
    },
    (16, 64, 64, 1001): {
        "indices": "4baf3d387574fd2c56435af998254d13779012b71ba9c25faed24be8322c33b2",
        "estimates": "e89b4fb2b3b450c013702a96916f5dfc33080ccff8ab80312830a1c21ecc92ce",
        "quantiles": "23ebf1dc1be8e0144fce5def7c5a5c9f682b6edad9ab15413b53a20b6c943a2b",
        "radii": "fca0c18885b187c0076ba7e865adb67a3a581535adaf8375718bdc80a585897d",
    },
}


def _point(seed, index, d):
    return streams.generator(seed, streams.VECTOR, index).random(d) - 0.5


def transform_outputs(name):
    """The arrays that the digest of ``name`` covers."""
    if name == "stream_rows":
        return [
            streams.stream_rows(7, streams.DIAGONAL, 5, 33, np.random.Generator.standard_normal),
            streams.stream_rows(7, streams.PHASE, 3, 1000, np.random.Generator.random),
        ]
    if name in FWHT_BUFFERS:
        return [
            fwht_in_place(_point(3, i, math.prod(shape)).reshape(shape))
            for i, shape in enumerate(FWHT_BUFFERS[name])
        ]
    if name == "embed_batch_split":
        out = []
        for i, (d, m, rows) in enumerate(EMBED_SPLIT_SHAPES):
            ens = build_ensemble(d, m, 8 + i)
            out.append(embed_batch(ens, np.stack([_point(9 + i, r, d) for r in range(rows)])))
        return out
    out = []
    for i, (d, m, rows) in enumerate(EMBED_SHAPES):
        ens = build_ensemble(d, m, 5 + i)
        zs = np.stack([_point(4 + i, r, d) for r in range(rows)])
        if name == "embed_batch":
            out.append(embed_batch(ens, zs))
        elif name == "embed_serial":
            out.extend(embed_serial(ens, z) for z in zs)
        else:
            out.extend(embed(ens, z).values for z in zs)
    return out


def transform_digest(name):
    h = hashlib.sha256()
    for values in transform_outputs(name):
        h.update(values.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(TRANSFORM_GOLDEN))
def test_transform_outputs_match_golden_digests(name):
    assert transform_digest(name) == TRANSFORM_GOLDEN[name], f"{name} outputs moved"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_embeddings_match_golden_digest_at_each_worker_count(workers, pin_workers):
    pin_workers(workers)
    assert transform_digest("embed_batch_split") == TRANSFORM_GOLDEN["embed_batch_split"]


def query_digests(d, m, width, k):
    """Digests of every query output, with queries between inserts."""
    est = build_estimator(d, m, 11)
    last = 2 * width + 1
    checkpoints = {0, 1, width - 1, width, width + 1, 2 * width, last}
    hashes = {name: hashlib.sha256() for name in ("indices", "estimates", "quantiles", "radii")}
    for n in range(last + 1):
        if n in checkpoints:
            params = QueryParams(eps=0.1, delta=0.01, query_seed=500 + n, k=k)
            estimates, details = query(est, _point(2, n, d), params, return_details=True)
            outputs = {
                "indices": details.indices.astype("<i8"),
                "estimates": estimates.astype("<f8"),
                "quantiles": details.quantiles.astype("<f8"),
                "radii": details.radii.astype("<f8"),
            }
            for name, values in outputs.items():
                hashes[name].update(values.tobytes())
        if n < last:
            insert(est, _point(1, n, d))
    return {name: h.hexdigest() for name, h in hashes.items()}


def _shape_id(shape):
    d, m, width, k = shape
    return f"d{d}-m{m}-width{width}" + (f"-k{k}" if k != 101 else "")


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_query_outputs_match_golden_digests(shape):
    got = query_digests(*shape)
    moved = sorted(name for name, digest in GOLDEN[shape].items() if got[name] != digest)
    assert not moved, f"query outputs moved at d, m, width, k = {shape}: {', '.join(moved)}"


VERIFY_ARGV = ["verify", "--d", "100", "--m", "64", "--n-random", "4", "--pairs", "20",
               "--seed", "7"]

# The JSON report of VERIFY_ARGV without its two runtime_ms lines.  Unlike
# the digests above it goes through cos, scipy's ndtr and BLAS norms; it read
# the same on one CPU and on two, with OPENBLAS_NUM_THREADS unset.
VERIFY_GOLDEN = "841fb691eee4ce73555121e37685341622f85c68d4affc6bdd7b503a65076712"


def test_verify_report_matches_golden_digest(capsys):
    assert run(VERIFY_ARGV) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = "".join(line for line in lines if '"runtime_ms"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_GOLDEN, "verify report moved"

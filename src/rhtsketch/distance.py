"""Distance estimation from stored embeddings, robust to adaptive queries.

The structure stores only the embedding of each inserted point.  A query
embeds q once, samples k coordinates uniformly with replacement from the
m * padded_d entries, and for every stored point i turns the sampled signed
differences into a distance estimate: a quantile sets a truncation radius,
and the truncated mean of absolute differences, rescaled by sqrt(pi/2),
estimates ||q - x_i||.  The same sampled coordinates serve every stored
point, and both the quantile and the mean.

The store is laid out for that gather (see DistanceEstimator); a query may
re-lay-out storage, but that never changes any result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

import numpy as np

from . import streams
from .ensemble import Embedding, RhtEnsemble, build_ensemble, embed, embed_batch
from .report import DeviationReport

# Truncation quantile level: the CDF of a standard normal at 3,
# float(scipy.special.ndtr(3.0)), written out so importing needs no scipy.
DEFAULT_ALPHA = 0.9986501019683699

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

ADVERSARIES = ("basis", "greedy-feedback")

# A storage chunk holds the widest power of two from 8 to 64 points whose
# embeddings fit in this many bytes, and 8 points when none does; 8 float64
# make one 64-byte cache line.
_CHUNK_BYTES = 8 << 20


def check_open_half(name: str, value: float) -> None:
    """The one range rule for eps and delta: value must lie in (0, 1/2)."""
    if not 0.0 < value < 0.5:
        raise ValueError(f"{name} must lie in (0, 1/2), got {value}")


@dataclass(frozen=True)
class QueryParams:
    """The accuracy target, sample count and seed of one query.

    k defaults (at query time) to default_sample_count(n, eps, delta).
    query_seed must be fresh per query; reusing one reuses the sampled
    coordinate set.  The truncation quantile level alpha is DEFAULT_ALPHA
    for every query.
    """

    eps: float
    delta: float
    query_seed: int
    k: Optional[int] = None
    alpha: ClassVar[float] = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        check_open_half("eps", self.eps)
        check_open_half("delta", self.delta)
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass
class DistanceEstimator:
    """An ensemble plus the stored embeddings of its n inserted points.

    Point i lives in chunk i // C, one float64 buffer of C * m * padded_d
    entries, where the width C = chunk_width is set by the ensemble: the
    largest power of two from 8 to 64 whose chunk fits in 8 MiB, and 8 when
    none does.  A chunk is filled point-major, viewed as (C, m * padded_d);
    once full, the next query seals it, rewriting the same buffer as its
    transpose (m * padded_d, C), so that one sampled coordinate of C points
    is C / 8 whole 64-byte cache lines.  The first ``_sealed`` chunks are
    sealed.  Sealing changes no stored value; it holds one chunk of scratch.

    Inserts and queries embed their point through embed_batch, a 512 KiB
    tile per worker thread.  A query runs one chunk at a time through a
    reused (C, k) block, so its transient is about 3 * C * k * 8 bytes (the
    block, the gathered coordinates and the quantile's partition) plus 24
    bytes per stored point for its outputs, whatever n is.
    """

    ensemble: RhtEnsemble
    n: int = field(default=0, init=False)
    chunk_width: int = field(init=False)
    _chunks: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _sealed: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        row_bytes = self.ensemble.diagonals.size * 8
        self.chunk_width = 64
        while self.chunk_width > 8 and self.chunk_width * row_bytes > _CHUNK_BYTES:
            self.chunk_width //= 2

    @property
    def embeddings(self) -> list[Embedding]:
        """Copies of the stored embeddings, in insertion order (read-only)."""
        out = []
        for i in range(self.n):
            c, r = divmod(i, self.chunk_width)
            values = self._chunks[c][:, r] if c < self._sealed else self._chunks[c][r]
            out.append(Embedding(values.copy()))
        return out


@dataclass(frozen=True)
class QueryDetails:
    """Diagnostics from one query: sampled indices, per-point quantiles, radii."""

    indices: np.ndarray
    quantiles: np.ndarray
    radii: np.ndarray


def quantile(values, alpha: float):
    """Order-statistic quantile over the last axis: sorted index ceil(alpha * n).

    The 1-based index is clamped to [1, n]; equivalently the smallest v such
    that the fraction of elements <= v is at least alpha.  A float for 1-D
    input, one value per row otherwise (an empty array for zero rows).
    """
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.shape[-1] == 0:
        raise ValueError("quantile of an empty collection")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = arr.shape[-1]
    rank = min(max(math.ceil(alpha * n), 1), n)
    q = np.partition(arr, rank - 1, axis=-1)[..., rank - 1]
    return float(q) if arr.ndim == 1 else q.copy()  # not a view pinning the partition


def psi(r, x, out=None):
    """Truncated magnitude min(|x|, r), vectorized; ``out=x`` works in place."""
    if not (np.asarray(r) >= 0.0).all():
        raise ValueError(f"truncation radius must be >= 0, got {r}")
    return np.minimum(np.abs(x, out=out), r, out=out)


def default_block_count(logical_d: int, eps: float, delta: float) -> int:
    """Default m = ceil(8 * eps^-2 * ln(d/delta))."""
    if logical_d < 1:
        raise ValueError(f"dimension must be positive, got {logical_d}")
    check_open_half("eps", eps)
    check_open_half("delta", delta)
    return math.ceil(8.0 * eps**-2 * math.log(logical_d / delta))


def default_sample_count(n: int, eps: float, delta: float) -> int:
    """Default k = ceil(8 * eps^-2 * ln(4n/delta)); n below 1 is treated as 1."""
    check_open_half("eps", eps)
    check_open_half("delta", delta)
    return math.ceil(8.0 * eps**-2 * math.log(4.0 * max(n, 1) / delta))


def build_estimator(logical_d: int, m: int, seed: int) -> DistanceEstimator:
    """Empty estimator over a fresh ensemble."""
    return DistanceEstimator(ensemble=build_ensemble(logical_d, m, seed))


def insert(est: DistanceEstimator, x: np.ndarray) -> int:
    """Store the embedding of x; returns its index. Cost O(m d log d).

    x is embedded straight into its row of the newest chunk.  Every
    chunk_width-th insert allocates a new chunk, kept only once x has passed
    embed_batch's checks, so a rejected x leaves the estimator unchanged.
    """
    z = np.asarray(x, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected {est.ensemble.dim.logical_d} entries, got shape {z.shape}")
    width = est.chunk_width
    row = est.n % width
    chunk = est._chunks[-1] if row else np.empty((width, est.ensemble.diagonals.size))
    embed_batch(est.ensemble, z[None, :], out=chunk[row : row + 1])
    if not row:
        est._chunks.append(chunk)
    est.n += 1
    return est.n - 1


def _seal(est: DistanceEstimator) -> None:
    """Transpose every full, unsealed chunk in place through one scratch chunk."""
    width = est.chunk_width
    full = est.n // width
    if est._sealed == full:
        return
    scratch = np.empty((width, est.ensemble.diagonals.size))
    for c in range(est._sealed, full):
        np.copyto(scratch, est._chunks[c])
        est._chunks[c] = est._chunks[c].reshape(-1, width)  # the same buffer
        np.copyto(est._chunks[c], scratch.T)
    est._sealed = full


def query(
    est: DistanceEstimator,
    q: np.ndarray,
    params: QueryParams,
    *,
    return_details: bool = False,
):
    """Distance estimates from q to every stored point, insertion-ordered.

    Embeds q, samples k coordinate indices uniformly with replacement from
    the query_seed stream, and for each stored point i computes
        r_i = max(0, 2*sqrt(ln 1/eps) * quantile(sampled differences, alpha))
        d_i = sqrt(pi/2) * mean of min(|sampled differences|, r_i).
    Returns a length-n float array; with return_details=True, a pair
    (estimates, QueryDetails).  Full chunks of the store are sealed first
    (see DistanceEstimator); that changes no result, and its one chunk of
    scratch is freed before the gather.  Then each chunk in turn is gathered
    and subtracted into one reused block, whose rows get their quantiles,
    are truncated in place and are summed into their slice of the
    estimates; the sums are divided by k once, and no n x k array is built.
    """
    y = embed(est.ensemble, q).values
    n = est.n
    k = params.k if params.k is not None else default_sample_count(n, params.eps, params.delta)
    total = y.shape[0]
    rng = streams.generator(params.query_seed, streams.QUERY, 0)
    indices = rng.integers(0, total, size=k)
    y_sel = y[indices]
    _seal(est)
    width = est.chunk_width
    factor = 2.0 * math.sqrt(math.log(1.0 / params.eps))
    estimates, quantiles, radii = (np.empty(n, dtype=np.float64) for _ in range(3))
    # Row i of the block is y_sel - stored_i[indices], as in a per-point loop.
    block = np.empty((min(width, n), k), dtype=np.float64)
    picked = np.empty((k, width), dtype=np.float64) if est._sealed else None
    for c, lo in enumerate(range(0, n, width)):
        rows = slice(lo, min(lo + width, n))
        diffs = block[: rows.stop - lo]
        if c < est._sealed:
            # indices lie in range, so "clip" changes nothing; "raise" would
            # write out through a temporary copy
            np.take(est._chunks[c], indices, axis=0, out=picked, mode="clip")
            np.subtract(y_sel, picked.T, out=diffs)
        else:
            np.subtract(y_sel, est._chunks[c][: n - lo, indices], out=diffs)
        quantiles[rows] = quantile(diffs, params.alpha)
        np.maximum(0.0, factor * quantiles[rows], out=radii[rows])
        np.add.reduce(psi(radii[rows, None], diffs, out=diffs), axis=1, out=estimates[rows])
    estimates /= k  # as np.mean divides its sum, without its per-call cost
    estimates *= _SQRT_HALF_PI
    if return_details:
        return estimates, QueryDetails(indices=indices, quantiles=quantiles, radii=radii)
    return estimates


def stress_round_seed(seed: int, round_index: int) -> int:
    """The query seed adaptive_stress uses for one round; fresh per round."""
    return streams.derive_seed(seed, streams.QUERY, round_index)


def adaptive_stress(
    est: DistanceEstimator,
    rounds: int,
    adversary: str,
    seed: int,
    *,
    points: np.ndarray,
    params: Optional[QueryParams] = None,
) -> DeviationReport:
    """Round-by-round worst relative error under adaptively chosen queries.

    ``points`` holds the raw inserted vectors, row i the point behind
    embeddings[i]; the estimator itself stores only embeddings, and relative
    error needs ground truth.  Adversaries: "basis" cycles the standard basis
    directions with a growing scale; "greedy-feedback" starts from a random
    unit vector and each round moves toward the point whose distance was
    worst-estimated in the previous round, renormalizing.  Every round uses a
    fresh query seed from stress_round_seed(seed, round).
    """
    if est.n == 0:
        raise ValueError("estimator holds no points")
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}; use one of {ADVERSARIES}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    points = np.asarray(points, dtype=np.float64)
    d = est.ensemble.dim.logical_d
    if points.shape != (est.n, d):
        raise ValueError(
            f"points must have shape ({est.n}, {d}), got {points.shape}"
        )
    if params is None:
        params = QueryParams(eps=0.1, delta=0.01, query_seed=0)
    start = time.perf_counter()
    cases = []
    q = None
    worst_idx = 0
    for t in range(rounds):
        if adversary == "basis":
            q = np.zeros(d, dtype=np.float64)
            q[t % d] = 1.0 + t // d
        elif q is None:
            q = streams.unit_vector(seed, t, d)
        else:
            step = q - points[worst_idx]
            norm = np.linalg.norm(step)
            if norm < 1e-12:
                step = streams.gaussian_block(seed, streams.VECTOR, t, d)
                norm = np.linalg.norm(step)
            q = q + 0.5 * step / norm
            q = q / np.linalg.norm(q)
        round_params = replace(params, query_seed=stress_round_seed(seed, t))
        estimates = query(est, q, round_params)
        truths = np.linalg.norm(points - q[None, :], axis=1)
        live = truths > 1e-12
        rel = np.zeros_like(truths)
        rel[live] = np.abs(estimates[live] - truths[live]) / truths[live]
        worst_idx = int(np.argmax(rel))
        cases.append((f"round_{t}", float(rel[worst_idx])))
    runtime_ms = int(1000 * (time.perf_counter() - start))
    report_params = {
        "d": d,
        "m": est.ensemble.m,
        "seed": int(seed),
        "eps": params.eps,
        "trials": rounds,
        "adversary": adversary,
        "n": est.n,
    }
    return DeviationReport.from_cases(
        f"adaptive_stress_{adversary}", report_params, cases, runtime_ms
    )

"""Random Fourier features on top of the transform ensemble.

h(x) = sqrt(2/(m*padded_d)) * cos(embedding(x) + b) with b i.i.d. uniform on
[0, 2*pi).  Inner products of feature vectors approximate the unit-bandwidth
RBF kernel exp(-||x-y||^2/2).  Padding adds genuine feature coordinates
(cosines of phase-shifted zero-mean Gaussians), so the approximation stays
unbiased at non-power-of-two dimensions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import streams
from .distance import check_open_half
from .ensemble import RhtEnsemble, embed, embed_batch
from .gaussian import rbf_kernel
from .report import DeviationReport


@dataclass(frozen=True)
class FourierFeatureMap:
    """An ensemble paired with its phase vector b of length m * padded_d."""

    ensemble: RhtEnsemble
    phases: np.ndarray
    phase_seed: int


def build_feature_map(ensemble: RhtEnsemble, phase_seed: int) -> FourierFeatureMap:
    """Draw phases for the ensemble from the PHASE-purpose stream.

    The stream key differs from the diagonal stream's even at an identical
    seed value, so phases and diagonals never share randomness.
    """
    d = ensemble.dim.padded_d
    phases = streams.stream_rows(
        phase_seed, streams.PHASE, ensemble.m, d, np.random.Generator.random
    ).reshape(-1)
    phases *= 2.0 * np.pi  # as streams.uniform_angles scales each row
    phases.setflags(write=False)
    return FourierFeatureMap(
        ensemble=ensemble, phases=phases, phase_seed=int(phase_seed)
    )


def features(fmap: FourierFeatureMap, x: np.ndarray) -> np.ndarray:
    """The feature vector sqrt(2/(m*padded_d)) * cos(embedding + phases).

    For 2-D x, one feature row per row of x, from one embed_batch call.
    """
    ens = fmap.ensemble
    x = np.asarray(x, dtype=np.float64)
    rows = embed_batch(ens, np.atleast_2d(x))
    rows += fmap.phases
    np.cos(rows, out=rows)
    rows *= np.sqrt(2.0 / (ens.m * ens.dim.padded_d))
    return rows if x.ndim == 2 else rows[0]


def kerdec_decompose(
    fmap: FourierFeatureMap, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Split the kernel estimate into its phase and difference terms.

    Product-to-sum on the feature cosines gives the kernel estimate
        <features(x), features(y)> = mean cos(embedding(x+y) + 2b)
                                   + mean cos(embedding(x-y)),
    the first term carrying all the phase randomness and the second only the
    difference vector.  Returns (sum_term, diff_term); their total matches
    the estimate to 1e-10 (the gap is pure roundoff via linearity of the
    embedding).
    """
    ens = fmap.ensemble
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sum_term = float(np.mean(np.cos(embed(ens, x + y).values + 2.0 * fmap.phases)))
    diff_term = float(np.mean(np.cos(embed(ens, x - y).values)))
    return sum_term, diff_term


def kernel_error_sweep(fmap: FourierFeatureMap, points: list[np.ndarray]) -> DeviationReport:
    """|kernel estimate - exact kernel| over all pairs of the given points.

    Covers every unordered pair including (i, i); the report carries the max,
    per-pair deviations, and a 10-bin histogram of the errors.
    """
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, got {len(points)}")
    start = time.perf_counter()
    ens = fmap.ensemble
    pts = np.asarray(points, dtype=np.float64)
    rows = features(fmap, pts)
    cases = []
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            err = abs(float(np.dot(rows[i], rows[j])) - rbf_kernel(pts[i], pts[j]))
            cases.append((f"pair_{i}_{j}", err))
    devs = np.array([dev for _, dev in cases])
    counts, edges = np.histogram(devs, bins=10, range=(0.0, max(devs.max(), 1e-300)))
    params = {
        "d": ens.dim.logical_d,
        "m": ens.m,
        "seed": ens.seed,
        "phase_seed": fmap.phase_seed,
        "n_points": len(pts),
        "histogram_counts": counts.tolist(),
        "histogram_edges": edges.tolist(),
    }
    runtime_ms = int(1000 * (time.perf_counter() - start))
    return DeviationReport("kernel_error_sweep", params, cases, runtime_ms)


def default_feature_blocks(eps: float, delta: float, diam: float) -> int:
    """Practical block count for a target accuracy over a set of diameter diam."""
    check_open_half("eps", eps)
    check_open_half("delta", delta)
    if diam < 0:
        raise ValueError(f"diameter must be nonnegative, got {diam}")
    return math.ceil(8.0 * eps**-2 * max(1.0, diam * diam) * math.log(2.0 / delta))

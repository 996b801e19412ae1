"""Reference implementations and closed forms that the tests compare against.

None of these are part of the package: each is the plain, slow or analytic
form of something the package computes another way.
"""

import math

import numpy as np

from rhtsketch.features import features
from rhtsketch.gaussian import GH_DEGREE, gaussian_expectation, std_normal_cdf
from rhtsketch.hadamard import fwht_in_place, hadamard_sign_matrix


def embed_serial(ens, z):
    """The embedding of z with each block H(D^j z) transformed on its own."""
    padded = np.zeros(ens.dim.padded_d)
    padded[: ens.dim.logical_d] = z
    blocks = ens.diagonals * padded
    for block in blocks:
        fwht_in_place(block)
    return blocks.reshape(-1)


def stored_embeddings(est):
    """A copy of the estimator's n stored embeddings, one row per insert.

    A white-box read of the store's chunks: the first ``_sealed`` hold their
    transpose (see DistanceEstimator), the rest are point-major.
    """
    chunks = [c.T if i < est._sealed else c for i, c in enumerate(est._chunks)]
    return np.concatenate(chunks or [np.empty((0, est.ensemble.diagonals.size))])[: est.n]


def partition_quantile(values, alpha):
    """distance.quantile by one partition of every row, whatever the rank.

    Float for 1-D input, one value per row otherwise; alpha and the rows are
    assumed valid.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    n = arr.shape[-1]
    rank = min(max(math.ceil(alpha * n), 1), n)
    q = np.partition(arr, rank - 1, axis=-1)[..., rank - 1]
    return float(q) if arr.ndim == 1 else q.copy()


def naive_hadamard_apply(x):
    """O(d^2) reference for the transform: multiply by the dense sign matrix."""
    x = np.asarray(x, dtype=np.float64)
    return hadamard_sign_matrix(len(x)) @ x


def approx_kernel(fmap, x, y):
    """<features(x), features(y)>, the kernel estimate."""
    return float(np.dot(features(fmap, x), features(fmap, y)))


def quadrature_drift(sigma):
    """The degree-doubling guard: |GH at degree 127 - GH at degree 254| for E cos(N(0, sigma^2))."""
    nodes, weights = np.polynomial.hermite.hermgauss(2 * GH_DEGREE)
    hi = float(weights @ np.cos(np.sqrt(2.0) * sigma * nodes) / np.sqrt(np.pi))
    return abs(hi - gaussian_expectation(sigma))


def truncated_abs_mean(r, sigma):
    """E min(|Z|, r) for Z ~ N(0, sigma^2).

    sigma*sqrt(2/pi)*(1 - exp(-r^2/(2 sigma^2))) + 2*r*(1 - Phi(r/sigma)).
    """
    if sigma == 0.0:
        return 0.0
    t = r / sigma
    return float(
        sigma * np.sqrt(2.0 / np.pi) * (1.0 - np.exp(-0.5 * t * t))
        + 2.0 * r * (1.0 - std_normal_cdf(t))
    )

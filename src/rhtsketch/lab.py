"""Concentration experiments: deviation sweeps, ECDF gaps, lower-bound baselines."""

from __future__ import annotations

import time

import numpy as np

from . import streams
from .ensemble import RhtEnsemble, build_ensemble, embed
from .gaussian import gaussian_expectation, std_normal_cdf
from .report import DeviationReport


def test_vector_suite(
    logical_d: int, n_random: int, seed: int
) -> tuple[tuple[str, np.ndarray], ...]:
    """(label, read-only unit vector) pairs: e_1, the flat vector, every dyadic
    sparsity level, and random directions.

    dyadic(l) has 2^l equal-magnitude nonzeros: the sparsity ladder between
    the basis vector (hardest single direction) and the flat vector (the
    fully spread case).
    """
    if logical_d < 2:
        raise ValueError(f"need dimension >= 2, got {logical_d}")
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    suite: list[tuple[str, np.ndarray]] = []
    e1 = np.zeros(logical_d)
    e1[0] = 1.0
    suite.append(("basis", e1))

    flat = np.ones(logical_d)
    flat /= np.linalg.norm(flat)
    suite.append(("flat", flat))

    level = 1
    while (1 << level) <= logical_d:
        v = np.zeros(logical_d)
        v[: 1 << level] = 1.0
        v /= np.linalg.norm(v)
        suite.append((f"dyadic({level})", v))
        level += 1

    suite += [(f"random_{i}", streams.unit_vector(seed, i, logical_d)) for i in range(n_random)]
    for _, v in suite:
        v.setflags(write=False)
    return tuple(suite)


def ball_points(n: int, d: int, seed: int) -> np.ndarray:
    """n points uniform in the unit d-ball; row i comes from stream (seed, VECTOR, i)."""
    pts = np.empty((n, d))
    for i in range(n):
        rng = streams.generator(seed, streams.VECTOR, i)
        g = rng.standard_normal(d)
        pts[i] = rng.random() ** (1.0 / d) * g / np.linalg.norm(g)
    return pts


def lipschitz_deviation(
    ensemble: RhtEnsemble, suite: tuple[tuple[str, np.ndarray], ...]
) -> DeviationReport:
    """Empirical-vs-Gaussian deviation of mean cos over embedding entries.

    Per suite vector z: | mean_{j,k} cos(embedding(z)_{j,k}) - E cos(N(0, ||z||^2)) |.
    cos is 1-Lipschitz, so this is the paper's deviation for one Lipschitz f.
    """
    if len(suite) == 0:
        raise ValueError("suite must be nonempty")
    start = time.perf_counter()
    cases = []
    for label, z in suite:
        emp = float(np.mean(np.cos(embed(ensemble, z).values)))
        truth = gaussian_expectation(float(np.linalg.norm(z)))
        cases.append((label, abs(emp - truth)))
    params = {
        "d": ensemble.dim.logical_d,
        "m": ensemble.m,
        "seed": ensemble.seed,
        "functional": "cos",
        "trials": len(suite),
    }
    runtime_ms = int(1000 * (time.perf_counter() - start))
    return DeviationReport("lipschitz_deviation[cos]", params, cases, runtime_ms)


def ecdf_deviation(ensemble: RhtEnsemble, z: np.ndarray) -> float:
    """Max of |empirical CDF of embedding entries - Phi| over [-5, 5].

    The grid's spacing of 0.01 bounds the off-grid slack by the normal
    density times 0.01.
    """
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"z must be unit norm, got ||z|| = {norm}")
    t_grid = np.linspace(-5.0, 5.0, 1001)
    samples = np.sort(embed(ensemble, z).values)
    ecdf = np.searchsorted(samples, t_grid, side="right") / samples.size
    return float(np.max(np.abs(ecdf - std_normal_cdf(t_grid))))


def basis_max_experiment(logical_d: int, m: int, trials: int, seed: int) -> dict:
    """Per-trial max_i |mean over blocks of the i-th diagonal entry|.

    Each of the logical_d per-coordinate block means is N(0, 1/m); their max
    magnitude is the one-round deviation floor a basis-vector adversary can
    force.  Trial t rebuilds the ensemble from a seed derived for t, so runs
    at different d or m with the same seed share their per-trial randomness
    (the streams are nested prefixes).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = np.empty(trials)
    for t in range(trials):
        ens = build_ensemble(logical_d, m, streams.derive_seed(seed, streams.TRIAL, t))
        w = ens.diagonals[:, :logical_d].mean(axis=0)
        per_trial[t] = np.max(np.abs(w))
    return {
        "label": "basis_max",
        "params": {"d": logical_d, "m": m, "seed": int(seed), "trials": trials},
        "per_trial": per_trial.tolist(),
        "median": float(np.median(per_trial)),
        "mean": float(np.mean(per_trial)),
    }


def gaussian_baseline_max(n: int, logical_d: int, trials: int, seed: int) -> dict:
    """Per-trial norm of the mean of n i.i.d. standard Gaussian d-vectors.

    This is the identity-functional deviation a dense Gaussian sketch of n
    rows cannot beat, the baseline the basis-max experiment is compared to.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1 or logical_d < 1:
        raise ValueError("n and logical_d must be positive")
    per_trial = np.empty(trials)
    for t in range(trials):
        g = streams.gaussian_block(
            streams.derive_seed(seed, streams.TRIAL, t), streams.VECTOR, 0, n * logical_d
        )
        per_trial[t] = np.linalg.norm(g.reshape(n, logical_d).mean(axis=0))
    return {
        "label": "gaussian_baseline_max",
        "params": {"n": n, "d": logical_d, "seed": int(seed), "trials": trials},
        "per_trial": per_trial.tolist(),
        "mean": float(np.mean(per_trial)),
    }

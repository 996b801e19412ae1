"""Command-line surface: bench, verify, kernel, distest, lowerbound."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import streams
from .csvio import CsvFormatError, read_points_csv
from .distance import (
    QueryParams,
    adaptive_stress,
    build_estimator,
    default_block_count,
    insert,
    query,
)
from .ensemble import SCHEMA_VERSION, build_ensemble, distortion_check, embed
from .features import build_feature_map, default_feature_blocks, kernel_error_sweep
from .gaussian import cosine_functional
from .hadamard import fwht_in_place, hadamard_sign_matrix, next_pow2
from .lab import (
    ball_points,
    basis_max_experiment,
    default_t_grid,
    ecdf_deviation,
    gaussian_baseline_max,
    lipschitz_deviation,
    test_vector_suite,
)
from .report import write_csv_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_CSV = 3
EXIT_INVARIANT = 4


class UsageError(Exception):
    """Bad flags or environment configuration; maps to exit code 2."""

# Stream indices for vectors the CLI itself draws; offset past the suite's
# own random vectors so the two never share a stream.
_PAIR_STREAM_BASE = 1 << 20


@dataclass
class RunConfig:
    """Everything a run depends on; embedded verbatim in every report."""

    command: str
    d: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    eps: Optional[float] = None
    delta: Optional[float] = None
    seed: int = 0
    input_path: Optional[str] = None
    query_path: Optional[str] = None
    output_path: Optional[str] = None
    format: str = "json"
    trials: Optional[int] = None
    n_random: Optional[int] = None
    pairs: Optional[int] = None
    stress_rounds: Optional[int] = None
    adversary: Optional[str] = None


def resolve_seed(flag_value: Optional[int]) -> int:
    """--seed flag, else RHT_SEED env var, else 0; never wall-clock."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get("RHT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"RHT_SEED is not an integer: {env!r}") from None
    return 0


def _check_range(cfg: RunConfig) -> None:
    for name in ("eps", "delta"):
        value = getattr(cfg, name)
        if value is not None and not 0.0 < value < 0.5:
            raise ValueError(f"{name} must lie in (0, 1/2), got {value}")
    for name in ("d", "m", "k", "n", "trials"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def _run_bench(cfg: RunConfig) -> tuple[dict, list[str], list]:
    sizes = []
    size = 8
    top = next_pow2(cfg.d).padded_d
    while size <= top:
        sizes.append(size)
        size *= 2
    if not sizes:
        sizes = [top]
    header = ["d", "fwht_ms", "embed_ms", "naive_ms", "speedup_embed_vs_naive"]
    rows = []
    for d in sizes:
        ens = build_ensemble(d, cfg.m, cfg.seed)
        z = streams.unit_vector(cfg.seed, 0, d)
        dv = ens.diagonals[0] * z
        buf = np.empty_like(dv)

        def run_fwht():
            np.copyto(buf, dv)
            fwht_in_place(buf)

        fwht_ms = _median_ms(run_fwht, reps=9)
        embed_ms = _median_ms(lambda: embed(ens, z), reps=5)
        naive_ms = None
        speedup = None
        if d <= 4096:
            h = hadamard_sign_matrix(d)
            naive_ms = _median_ms(lambda: h @ dv, reps=9)
            speedup = naive_ms / embed_ms
        rows.append([d, fwht_ms, embed_ms, naive_ms, speedup])
    return {"timings": [dict(zip(header, row)) for row in rows]}, header, rows


def _run_verify(cfg: RunConfig) -> tuple[dict, list[str], list]:
    ensemble = build_ensemble(cfg.d, cfg.m, cfg.seed)
    suite = test_vector_suite(cfg.d, cfg.n_random, cfg.seed)
    lip = lipschitz_deviation(ensemble, cosine_functional(), suite)
    grid = default_t_grid()
    by_label = dict(suite)
    ecdf_flat = ecdf_deviation(ensemble, by_label["flat"], grid)
    ecdf_basis = ecdf_deviation(ensemble, by_label["basis"], grid)
    pairs = [
        (
            streams.unit_vector(cfg.seed, _PAIR_STREAM_BASE + 2 * p, cfg.d),
            streams.unit_vector(cfg.seed, _PAIR_STREAM_BASE + 2 * p + 1, cfg.d),
        )
        for p in range(cfg.pairs)
    ]
    distortion = distortion_check(ensemble, pairs)
    max_deviation = max(lip.max_deviation, ecdf_flat, ecdf_basis, distortion)
    body = {
        "lipschitz": lip.to_dict(),
        "ecdf": {"flat": ecdf_flat, "basis": ecdf_basis},
        "distortion_max": distortion,
        "max_deviation": max_deviation,
    }
    rows = lip.per_case + [
        ("ecdf_flat", ecdf_flat),
        ("ecdf_basis", ecdf_basis),
        ("distortion_max", distortion),
    ]
    return body, ["case_id", "deviation"], rows


def _run_kernel(cfg: RunConfig) -> tuple[dict, list[str], list]:
    if cfg.input_path is not None:
        pts = read_points_csv(cfg.input_path)
    else:
        pts = ball_points(cfg.n, cfg.d, cfg.seed)
    n, d = pts.shape
    m = cfg.m
    if m is None:
        gram = pts @ pts.T
        sq = np.diag(gram)
        diam = math.sqrt(max(float(np.max(sq[:, None] + sq[None, :] - 2 * gram)), 0.0))
        m = default_feature_blocks(cfg.eps, cfg.delta, diam)
    fmap = build_feature_map(build_ensemble(d, m, cfg.seed), cfg.seed)
    sweep = kernel_error_sweep(fmap, list(pts))
    body = {"kernel_sweep": sweep.to_dict(), "max_deviation": sweep.max_deviation}
    return body, ["case_id", "deviation"], sweep.per_case


def _run_distest(cfg: RunConfig) -> tuple[dict, list[str], list]:
    pts = read_points_csv(cfg.input_path)
    queries = read_points_csv(cfg.query_path)
    if queries.shape[1] != pts.shape[1]:
        raise CsvFormatError(
            f"query width {queries.shape[1]} != point width {pts.shape[1]}"
        )
    d = pts.shape[1]
    m = cfg.m if cfg.m is not None else default_block_count(d, cfg.eps, cfg.delta)
    est = build_estimator(d, m, cfg.seed)
    for row in pts:
        insert(est, row)
    results, rows = [], []
    for qi, qrow in enumerate(queries):
        params = QueryParams(
            eps=cfg.eps,
            delta=cfg.delta,
            k=cfg.k,
            query_seed=streams.derive_seed(cfg.seed, streams.QUERY, qi),
        )
        estimates = query(est, qrow, params).tolist()
        results.append({"query_index": qi, "estimates": estimates})
        rows += [[qi, pi, value] for pi, value in enumerate(estimates)]
    out: dict = {"queries": results, "n": est.n, "m": m}
    if cfg.stress_rounds:
        stress = adaptive_stress(
            est,
            cfg.stress_rounds,
            cfg.adversary,
            streams.derive_seed(cfg.seed, streams.TRIAL, 0),
            points=pts,
            params=QueryParams(eps=cfg.eps, delta=cfg.delta, k=cfg.k, query_seed=0),
        )
        out["stress"] = stress.to_dict()
        out["max_deviation"] = stress.max_deviation
    return out, ["query_index", "point_index", "estimate"], rows


def _run_lowerbound(cfg: RunConfig) -> tuple[dict, list[str], list]:
    basis = basis_max_experiment(cfg.d, cfg.m, cfg.trials, cfg.seed)
    n = math.ceil((2.0 * cfg.eps) ** -2 * cfg.d)
    baseline = gaussian_baseline_max(n, cfg.d, cfg.trials, cfg.seed)
    frac = float(np.mean(np.asarray(baseline["per_trial"]) >= cfg.eps))
    body = {
        "basis_max": basis,
        "baseline": baseline,
        "baseline_n": n,
        "fraction_baseline_ge_eps": frac,
    }
    rows = [
        [t, bm, bn]
        for t, (bm, bn) in enumerate(zip(basis["per_trial"], baseline["per_trial"]))
    ]
    return body, ["trial", "basis_max", "baseline_norm"], rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhtsketch",
        description="Randomized Hadamard transform sketches: benchmarks, "
        "verification suites, kernel features, distance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: RHT_SEED env var, else 0)")
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bench", help="FWHT and embed throughput vs naive dense apply")
    p.add_argument("--d", type=int, default=4096)
    p.add_argument("--m", type=int, default=1)
    add_common(p)

    p = sub.add_parser("verify", help="deviation, ECDF, and distortion suites")
    p.add_argument("--d", type=int, default=256)
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--n-random", type=int, default=8, dest="n_random",
                   help="random unit vectors in the test suite")
    p.add_argument("--pairs", type=int, default=50,
                   help="random unit pairs for the distortion check")
    add_common(p)

    p = sub.add_parser("kernel", help="kernel approximation error sweep")
    p.add_argument("--input", dest="input_path", default=None,
                   help="CSV of points; generated uniformly in the unit ball if absent")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m", type=int, default=None,
                   help="feature blocks (default: from eps/delta and the point diameter)")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.01)
    add_common(p)

    p = sub.add_parser("distest", help="distance estimation over a CSV point set")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--query", dest="query_path", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--stress", type=int, default=0, dest="stress_rounds",
                   help="adaptive stress rounds after the plain queries")
    p.add_argument("--adversary", choices=("basis", "greedy-feedback"),
                   default="greedy-feedback")
    add_common(p)

    p = sub.add_parser("lowerbound", help="basis-max experiment and Gaussian baseline")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--eps", type=float, default=0.25)
    add_common(p)

    return parser


# The command table; each handler returns (JSON body, CSV header, CSV rows).
_HANDLERS = {
    "bench": _run_bench,
    "verify": _run_verify,
    "kernel": _run_kernel,
    "distest": _run_distest,
    "lowerbound": _run_lowerbound,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fields = {f: getattr(args, f, None) for f in RunConfig.__dataclass_fields__}
    try:
        fields["seed"] = resolve_seed(args.seed)
    except UsageError as exc:
        print(f"rhtsketch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fields["format"] = args.format
    cfg = RunConfig(**fields)
    start = time.perf_counter()
    try:
        _check_range(cfg)
        body, header, rows = _HANDLERS[cfg.command](cfg)
    except CsvFormatError as exc:
        print(f"rhtsketch: CSV error: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV
    except (ValueError, OverflowError) as exc:
        print(f"rhtsketch: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    runtime_ms = int(1000 * (time.perf_counter() - start))
    if cfg.format == "csv":
        buf = io.StringIO()
        write_csv_rows(buf, header, rows)
        text = buf.getvalue()
    else:
        report = {"schema_version": SCHEMA_VERSION, "config": asdict(cfg),
                  "runtime_ms": runtime_ms, **body}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if not cfg.output_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    except OSError as exc:
        print(f"rhtsketch: cannot write {cfg.output_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads, their inputs and their correctness checks.

Every workload runs the whole pipeline at one shape: the Fourier-feature
sweep and ``embed_batch``, the distance estimator (inserts, queries,
adaptive stress) and ``rhtsketch verify``.  The workloads differ in the
shape and in how much of each operation a round holds, so each one puts its
weight on a different layer and still reports every end-to-end metric.

Every workload is one closed-loop client: an operation starts when the
previous one has returned.  A run does whole rounds of the same operations
until ``--seconds`` have passed (and at least ``min_rounds``), so the number
of operations attempted is a whole number of rounds plus a fixed preamble.

Checks are computed apart from the program: embedding blocks against
``scipy.linalg.hadamard`` applied to the public diagonals, the exact RBF
kernel and true distances from the raw points with numpy, and query
estimates recomputed from ``QueryDetails.indices`` with the paper's formula.
Checks run outside the timed calls, inside ``bench.check`` spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import spans

# rhtsketch re-exports its functions at package level, shadowing the
# submodules of the same name, so the modules are fetched explicitly.  Every
# call goes through a module attribute looked up at call time, which is
# where the traced run installs its span recorders.
ensemble = importlib.import_module("rhtsketch.ensemble")
features = importlib.import_module("rhtsketch.features")
distance = importlib.import_module("rhtsketch.distance")
cli = importlib.import_module("rhtsketch.cli")

# Tags that keep each workload's input streams apart under one --seed.
_TAG = {"kernel-sweep": 1, "distest-adaptive": 2, "distest-wide": 3, "verify-cli": 4, "check": 9}


def input_rng(seed, tag, round_index=None):
    """Generator for a workload's fixed inputs, or for one round's inputs.

    Keys have one length: numpy's SeedSequence ignores trailing zero words,
    so [seed, tag] and [seed, tag, 0] would give the same stream.
    """
    key = [seed, _TAG[tag], 0, 0] if round_index is None else [seed, _TAG[tag], 1, round_index]
    return np.random.default_rng(key)


class Op:
    """One attempted operation: its timed call and its check verdict."""

    def __init__(self) -> None:
        self.elapsed = None
        self.failure = None

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.elapsed = time.perf_counter() - start
        return result

    def require(self, ok, message: str) -> None:
        if not ok and self.failure is None:
            self.failure = message


class Run:
    """State of one pass over a workload: counts, samples, spans, deadline.

    With ``setup_samples`` > 1 the run takes that many set-up samples, each a
    build plus an import of rhtsketch (``import_probe``, a fresh interpreter;
    the caller adds its own import as the first).  The first build is the
    workload's own; the others are spread over the timed phase, between
    rounds and off its clock, so that their median covers the same stretch
    of machine time as the operations do.
    """

    def __init__(self, seed, seconds, *, setup_samples=1, import_probe=None,
                 recorder=None, rounds=None):
        self.seed = seed
        self.seconds = seconds
        self.setup_samples = setup_samples
        self.import_probe = import_probe
        self.recorder = recorder
        self.fixed_rounds = rounds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.rounds_done = 0
        self.wall = 0.0
        self._deadline = 0.0
        self._build = None
        self._next_setup = math.inf
        self.check_rng = input_rng(seed, "check")

    def span(self, name, *, untraced_inside=False):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, untraced_inside=untraced_inside)

    def check(self):
        """Span around check code; the program calls inside it are not traced."""
        return self.span("bench.check", untraced_inside=True)

    @contextlib.contextmanager
    def _root(self, name):
        start = time.perf_counter()
        try:
            with self.span(name):
                yield
        finally:
            self.wall += time.perf_counter() - start

    def setup(self, build):
        """Build the workload's objects, keeping the build time as a sample."""
        with self._root("bench.setup"):
            start = time.perf_counter()
            result = build()
            self.samples["build"].append(time.perf_counter() - start)
        self._build = build
        return result

    def _setup_sample(self):
        self.samples["import"].append(self.import_probe())
        start = time.perf_counter()
        self._build()
        self.samples["build"].append(time.perf_counter() - start)

    def _setup_samples_due(self):
        """Take the set-up samples due by now, and move the deadline past them."""
        start = time.perf_counter()
        while len(self.samples["build"]) < self.setup_samples and start >= self._next_setup:
            self._setup_sample()
            self._next_setup += self.seconds / self.setup_samples
        self._deadline += time.perf_counter() - start

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        self._deadline = start + self.seconds
        self._next_setup = start + self.seconds / self.setup_samples
        with self._root("bench.timed"):
            yield
        while len(self.samples["build"]) < self.setup_samples:
            self._setup_sample()

    def rounds(self, min_rounds):
        r = 0
        while True:
            if self.fixed_rounds is not None:
                if r >= self.fixed_rounds:
                    return
            elif r >= min_rounds and time.perf_counter() >= self._deadline:
                return
            yield r
            r += 1
            self.rounds_done = r
            self._setup_samples_due()

    @contextlib.contextmanager
    def op(self, kind):
        op = Op()
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # an operation that raises counts as failed
            op.failure = f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        if op.failure is not None:
            self.failed += 1
            self.failures.append(f"{kind}: {op.failure}")
        elif op.elapsed is not None:
            self.samples[kind].append(op.elapsed)

    @contextlib.contextmanager
    def memory(self, counter):
        """Record tracemalloc growth over the block, in the traced pass only."""
        if self.recorder is None:
            yield
            return
        with spans.traced_memory() as box:
            yield
        self.recorder.counters[counter] = box["growth"]


# ---------------------------------------------------------------- references

_H = {}


def _hadamard(n):
    if n not in _H:
        _H[n] = scipy.linalg.hadamard(n).astype(np.float64)
    return _H[n]


def reference_blocks(diagonals, z, blocks):
    """Blocks H (D_j z_pad) for the given j, by dense matrix product."""
    pd = diagonals.shape[1]
    zpad = np.zeros(pd)
    zpad[: len(z)] = z
    return (diagonals[blocks] * zpad) @ _hadamard(pd)


def check_embedding(op, run, diagonals, z, values, n_blocks=4):
    """Compare sampled blocks of an embedding with the dense reference."""
    m, pd = diagonals.shape
    blocks = run.check_rng.choice(m, size=min(n_blocks, m), replace=False)
    ref = reference_blocks(diagonals, z, blocks)
    got = np.asarray(values).reshape(m, pd)[blocks]
    err = float(np.max(np.abs(got - ref)))
    op.require(err <= 1e-10 * max(1.0, float(np.max(np.abs(ref)))),
               f"embedding blocks differ from H D z by {err:.3e}")


def unit_rows(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def median_rate(count, times):
    """Median of count / t; NaN when every operation of the kind failed."""
    return statistics.median(count / t for t in times) if times else math.nan


def median_or_nan(values):
    return statistics.median(values) if values else math.nan


def percentile_ms(times, q):
    return float(np.percentile(1000.0 * np.asarray(times), q)) if times else math.nan


# ------------------------------------------------------------------ shapes

@dataclass(frozen=True)
class Shape:
    """One workload: the shape of its ensembles and what one round holds.

    The estimator's ensemble and the one ``verify`` builds are
    ``build_ensemble(d, m, seed)``; the feature map's has ``kernel_m``
    blocks.  ``eps`` is the estimator's accuracy; m is at least
    ``default_block_count(d, eps, delta)``.
    """

    d: int
    m: int
    kernel_m: int
    eps: float
    sweep_points: int   # points uniform in the unit ball, for the kernel layer
    sweeps: int         # kernel_error_sweep calls per round, each over all pairs
    block: int          # pairs per embed_batch call (one call on x+y, one on x-y)
    store_points: int   # unit points in the estimator
    refill: bool        # also fill a throwaway estimator in every round
    insert_batch: int   # consecutive inserts per insert_per_s sample
    queries: int        # plain queries per round
    adversary: str
    stress_rounds: int  # adaptive_stress rounds per call
    stress_calls: int   # adaptive_stress calls per round
    verify_pairs: int
    verify_random: int
    verifies: int       # verify calls per round
    min_rounds: int
    delta: float = 0.01


SHAPES = {
    # The criterion-4 shape.  Each embed_batch call of 300 rows runs the
    # 256-row chunk loop twice.
    "kernel-sweep": Shape(
        d=64, m=2000, kernel_m=2000, eps=0.2, sweep_points=50, sweeps=3, block=300,
        store_points=50, refill=True, insert_batch=10, queries=50,
        adversary="basis", stress_rounds=5, stress_calls=4,
        verify_pairs=10, verify_random=1, verifies=4, min_rounds=2),
    # The criterion-5 shape: m = 7566, k = 8478, a 775 MB store.
    "distest-adaptive": Shape(
        d=128, m=7566, kernel_m=7566, eps=0.1, sweep_points=6, sweeps=1, block=6,
        store_points=100, refill=False, insert_batch=10, queries=25,
        adversary="greedy-feedback", stress_rounds=5, stress_calls=1,
        verify_pairs=1, verify_random=0, verifies=1, min_rounds=4),
    # d = 20 pads to 32; m = 301, k = 537: a small embedding, many points.
    # The feature map has 4 * 301 blocks, which keeps the kernel error of 24
    # points under 0.05 (with 301 it reached 0.063 over 200 seeds).  Its
    # embed_batch blocks stay small: 260-row blocks (two chunks) left heap
    # fragments that moved peak_rss_mb between 400 and 456 MiB from run to run.
    "distest-wide": Shape(
        d=20, m=301, kernel_m=1204, eps=0.45, sweep_points=24, sweeps=3, block=30,
        store_points=2000, refill=True, insert_batch=100, queries=25,
        adversary="basis", stress_rounds=10, stress_calls=2,
        verify_pairs=50, verify_random=4, verifies=3, min_rounds=4),
    # The criterion-2 shape of rhtsketch verify.
    "verify-cli": Shape(
        d=256, m=1085, kernel_m=1085, eps=0.3, sweep_points=12, sweeps=2, block=26,
        store_points=30, refill=True, insert_batch=10, queries=34,
        adversary="greedy-feedback", stress_rounds=5, stress_calls=2,
        verify_pairs=100, verify_random=8, verifies=1, min_rounds=3),
}


# ------------------------------------------------------------- kernel layer

def kernel_layer(run, s, fmap, pts):
    """References for the Fourier-feature layer; returns one round of it."""
    ens = fmap.ensemble
    n = len(pts)
    point_list = list(pts)
    idx_i, idx_j = np.triu_indices(n)
    n_pairs = len(idx_i)
    phases2 = 2.0 * fmap.phases

    with run.check():
        # Independent kernel estimates: dense-H embeddings, cos features, Gram.
        pd = ens.dim.padded_d
        padded = np.zeros((n, pd))
        padded[:, :s.d] = pts
        emb = (ens.diagonals[None, :, :] * padded[:, None, :]) @ _hadamard(pd)
        feats = math.sqrt(2.0 / (s.kernel_m * pd)) * np.cos(emb.reshape(n, -1) + fmap.phases)
        del emb
        est_ref = feats @ feats.T
        del feats
        sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        exact = np.exp(-0.5 * sq)
        err_ref = np.abs(est_ref - exact)[idx_i, idx_j]
        labels = [f"pair_{i}_{j}" for i, j in zip(idx_i, idx_j)]

    def one_round(r):
        for _ in range(s.sweeps):
            with run.op("sweep") as op:
                report = op.time(features.kernel_error_sweep, fmap, point_list)
                with run.check():
                    got = np.array([dev for _, dev in report.per_case])
                    op.require([cid for cid, _ in report.per_case] == labels,
                               "sweep pairs differ from all i <= j pairs")
                    op.require(np.max(np.abs(got - err_ref)) <= 1e-9,
                               "sweep errors differ from numpy reference")
                    op.require(report.max_deviation <= 0.05,
                               f"kernel error {report.max_deviation:.4f} > 0.05")
        # Round r embeds the block of pairs starting at (seed + r) * block,
        # wrapping round the pair list, so runs of few rounds still reach
        # every pair across seeds.
        block = ((run.seed + r) * s.block + np.arange(s.block)) % n_pairs
        terms = {}
        for kind, rows in (("sum", pts[idx_i[block]] + pts[idx_j[block]]),
                           ("diff", pts[idx_i[block]] - pts[idx_j[block]])):
            with run.op("embed_batch") as op:
                emb = op.time(ensemble.embed_batch, ens, rows)
                with run.check():
                    for row in run.check_rng.choice(len(rows), size=2, replace=False):
                        check_embedding(op, run, ens.diagonals, rows[row], emb[row])
                with run.span("bench.cos_phase"):
                    if kind == "sum":
                        emb += phases2
                    np.cos(emb, out=emb)
                    terms[kind] = emb.mean(axis=1)
                del emb
        with run.op("kerdec") as op:
            with run.check():
                gap = np.max(np.abs(terms["sum"] + terms["diff"] - est_ref[idx_i[block], idx_j[block]]))
                op.require(gap <= 1e-10, f"KER-DEC sum + diff off the kernel estimate by {gap:.2e}")
            spot = int(run.check_rng.integers(len(block)))
            p = block[spot]
            pair_terms = features.kerdec_decompose(fmap, pts[idx_i[p]], pts[idx_j[p]])
            op.require(pair_terms == (float(terms["sum"][spot]), float(terms["diff"][spot])),
                       f"batched and per-pair KER-DEC terms differ at pair {p}")

    return one_round, n_pairs


# ----------------------------------------------------------- distance layer

def distance_layer(run, s, name, est, pts):
    """Fill the estimator (the preamble); returns one round of queries."""
    ens = est.ensemble
    n = len(pts)
    k = distance.default_sample_count(n, s.eps, s.delta)
    radius_factor = 2.0 * math.sqrt(math.log(1.0 / s.eps))

    def rel_errors(estimates, q, skip=None):
        truth = np.linalg.norm(pts - q[None, :], axis=1)
        live = np.ones(n, dtype=bool)
        if skip is not None:
            live[skip] = False
        return np.abs(estimates[live] - truth[live]) / truth[live]

    def fill(store):
        for i, x in enumerate(pts):
            with run.op("insert") as op:
                index = op.time(distance.insert, store, x)
                op.require(index == i and store.n == i + 1, f"insert {i} returned {index}")

    with run.memory("distance.store_bytes"):
        fill(est)

    # Embeddings of a few stored points, for recomputing estimates.
    probes = {}
    with run.op("probe_embed") as op, run.check():
        for i in run.check_rng.choice(n, size=3, replace=False):
            probes[int(i)] = ensemble.embed(ens, pts[i]).values
            check_embedding(op, run, ens.diagonals, pts[i], probes[int(i)])

    def one_round(r):
        if s.refill:
            # A fill of the whole store into a throwaway estimator, so that
            # insert timings come from every round and not only from the
            # start of the run.
            fill(distance.build_estimator(s.d, s.m, run.seed))
        qrng = input_rng(run.seed, name, r)
        queries = unit_rows(qrng, s.queries, s.d)
        seeds = qrng.integers(0, 1 << 62, size=s.queries + 3)
        first = None
        for qi, q in enumerate(queries):
            params = distance.QueryParams(eps=s.eps, delta=s.delta, k=k, query_seed=int(seeds[qi]))
            with run.op("query") as op:
                estimates = op.time(distance.query, est, q, params)
                if first is None:
                    first = (q, params, estimates)
                with run.check():
                    rel = rel_errors(estimates, q)
                    op.require(len(estimates) == n and np.max(rel) <= s.eps,
                               f"plain query relative error {np.max(rel):.4f} > {s.eps}")

        with run.op("query_details") as op:
            if first is None:
                raise RuntimeError("no plain query of the round returned")
            q, params, plain = first
            estimates, details = distance.query(est, q, params, return_details=True)
            with run.check():
                op.require(np.array_equal(estimates, plain),
                           "return_details changed the estimates")
                y = ensemble.embed(ens, q).values
                check_embedding(op, run, ens.diagonals, q, y)
                idx = np.asarray(details.indices)
                op.require(len(idx) == k, f"{len(idx)} sampled indices, expected {k}")
                rank = min(max(math.ceil(params.alpha * k), 1), k)
                for i, x in probes.items():
                    diffs = y[idx] - x[idx]
                    q_alpha = np.sort(diffs)[rank - 1]
                    radius = max(0.0, radius_factor * q_alpha)
                    expect = math.sqrt(math.pi / 2.0) * float(np.mean(np.minimum(np.abs(diffs), radius)))
                    op.require(
                        abs(estimates[i] - expect) <= 1e-9 * max(expect, 1e-300)
                        and q_alpha == details.quantiles[i],
                        f"estimate {estimates[i]!r} for point {i} differs from "
                        f"recomputed {expect!r}")

        for call in range(s.stress_calls):
            with run.op("stress") as op:
                params = distance.QueryParams(eps=s.eps, delta=s.delta, k=k, query_seed=0)
                report = op.time(distance.adaptive_stress, est, s.stress_rounds, s.adversary,
                                 int(seeds[-2]) + call, points=pts, params=params)
                with run.check():
                    op.require(len(report.per_case) == s.stress_rounds
                               and report.max_deviation <= s.eps,
                               f"adaptive relative error {report.max_deviation:.4f} > {s.eps}")

        with run.op("coincident") as op:
            c = r % n
            params = distance.QueryParams(eps=s.eps, delta=s.delta, k=k, query_seed=int(seeds[-1]))
            estimates = distance.query(est, pts[c], params)
            with run.check():
                op.require(estimates[c] == 0.0,
                           f"coincident query returned {estimates[c]!r}, not 0")
                op.require(np.max(rel_errors(estimates, pts[c], skip=c)) <= s.eps,
                           "coincident query: other estimates off by more than eps")

    return one_round


# ------------------------------------------------------------- verify layer

def _without_runtime(node):
    if isinstance(node, dict):
        return {k: _without_runtime(v) for k, v in node.items() if k != "runtime_ms"}
    if isinstance(node, list):
        return [_without_runtime(v) for v in node]
    return node


def _check_verify_report(op, run, s, ens, report):
    """Recompute the structured suite's deviations with dense H."""
    cfg = report["config"]
    op.require((cfg["d"], cfg["m"], cfg["pairs"], cfg["n_random"], cfg["seed"])
               == (s.d, s.m, s.verify_pairs, s.verify_random, run.seed),
               f"report config {cfg} is not the requested one")
    all_blocks = np.arange(s.m)
    vectors = {}
    for label, support in [("basis", 1), ("flat", s.d)] + [
            (f"dyadic({l})", 1 << l) for l in range(1, s.d.bit_length())]:
        z = np.zeros(s.d)
        z[:support] = 1.0 / math.sqrt(support)
        vectors[label] = reference_blocks(ens.diagonals, z, all_blocks).reshape(-1)
    per_case = dict(report["lipschitz"]["per_case"])
    for label, emb in vectors.items():
        dev = abs(float(np.mean(np.cos(emb))) - math.exp(-0.5))
        op.require(abs(per_case.get(label, -1.0) - dev) <= 1e-9,
                   f"cos deviation for {label}: report {per_case.get(label)}, numpy {dev}")
    grid = np.linspace(-5.0, 5.0, 1001)
    phi = 0.5 * (1.0 + np.array([math.erf(t / math.sqrt(2.0)) for t in grid]))
    for label in ("flat", "basis"):
        samples = np.sort(vectors[label])
        sup = float(np.max(np.abs(np.searchsorted(samples, grid, side="right") / samples.size - phi)))
        # A sample on the other side of a grid point moves the ECDF by 1/N.
        op.require(abs(report["ecdf"][label] - sup) <= 3.0 / samples.size,
                   f"ecdf {label}: report {report['ecdf'][label]}, numpy {sup}")
    parts = [report["lipschitz"]["max_deviation"], report["ecdf"]["flat"],
             report["ecdf"]["basis"], report["distortion_max"]]
    op.require(report["max_deviation"] == max(parts), "max_deviation is not the max of its parts")


def verify_layer(run, s, ens):
    """One round of ``rhtsketch verify`` calls at the workload's shape, in process."""
    argv = ["verify", "--d", str(s.d), "--m", str(s.m),
            "--n-random", str(s.verify_random), "--pairs", str(s.verify_pairs),
            "--seed", str(run.seed)]
    first = []

    def one_round(r):
        for _ in range(s.verifies):
            with run.op("verify") as op:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = op.time(cli.run, argv)
                with run.check():
                    op.require(code == 0, f"verify exited {code}")
                    report = json.loads(out.getvalue())
                    op.require(report["distortion_max"] <= 0.2,
                               f"distortion {report['distortion_max']:.4f} > 0.2")
                    stripped = _without_runtime(report)
                    if not first:
                        first.append(stripped)
                        _check_verify_report(op, run, s, ens, report)
                    op.require(stripped == first[0], "verify reports differ beyond runtime_ms")

    return one_round


# ---------------------------------------------------------------- workloads

def run_shape(run, name):
    """Run one workload; return its end-to-end metrics but set-up and memory."""
    s = SHAPES[name]
    rng = input_rng(run.seed, name)
    g = rng.standard_normal((s.sweep_points, s.d))
    radius = rng.random(s.sweep_points) ** (1.0 / s.d)
    ball = radius[:, None] * g / np.linalg.norm(g, axis=1, keepdims=True)
    stored = unit_rows(rng, s.store_points, s.d)

    def build():
        ens = ensemble.build_ensemble(s.d, s.kernel_m, run.seed)
        return features.build_feature_map(ens, run.seed), distance.build_estimator(s.d, s.m, run.seed)

    fmap, est = run.setup(build)
    kernel_round, n_pairs = kernel_layer(run, s, fmap, ball)
    with run.timed():
        distance_round = distance_layer(run, s, name, est, stored)
        verify_round = verify_layer(run, s, est.ensemble)
        for r in run.rounds(s.min_rounds):
            kernel_round(r)
            distance_round(r)
            verify_round(r)

    inserts = run.samples["insert"]
    batches = [sum(inserts[lo:lo + s.insert_batch])
               for lo in range(0, len(inserts) - s.insert_batch + 1, s.insert_batch)]
    return {
        "sweep_pairs_per_s": (median_rate(n_pairs, run.samples["sweep"]), "pairs/s"),
        "embed_batch_rows_per_s": (median_rate(s.block, run.samples["embed_batch"]), "rows/s"),
        "insert_per_s": (median_rate(s.insert_batch, batches), "points/s"),
        "query_ms_p50": (percentile_ms(run.samples["query"], 50), "ms"),
        "query_ms_p90": (percentile_ms(run.samples["query"], 90), "ms"),
        "adaptive_rounds_per_s": (median_rate(s.stress_rounds, run.samples["stress"]), "rounds/s"),
        "verify_s": (median_or_nan(run.samples["verify"]), "s"),
    }

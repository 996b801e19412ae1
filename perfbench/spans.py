"""Span recorder for the traced benchmark run.

Spans are recorded from this directory only: ``install`` replaces each
public rhtsketch function, in every rhtsketch module that binds it, with a
wrapper that records (name, start, end, parent, attrs).  Consumers therefore
see the wrapper under the name they import (``ensemble.fwht_in_place``,
``distance.embed``, ``features.rbf_kernel``, ...), and calls a module makes to
its own functions are recorded too.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

_distance = importlib.import_module("rhtsketch.distance")

MODULES = (
    "streams", "hadamard", "ensemble", "gaussian", "features",
    "distance", "lab", "report", "cli", "csvio",
)

# (module, function) pairs the traced run wraps; span name "<module>.<function>".
TARGETS = (
    ("streams", "generator"),
    ("streams", "gaussian_block"),
    ("streams", "uniform_angles"),
    ("streams", "derive_seed"),
    ("hadamard", "fwht_in_place"),
    ("ensemble", "build_ensemble"),
    ("ensemble", "embed"),
    ("ensemble", "embed_batch"),
    ("ensemble", "distortion_check"),
    ("gaussian", "rbf_kernel"),
    ("gaussian", "gaussian_expectation"),
    ("features", "build_feature_map"),
    ("features", "features"),
    ("features", "kerdec_decompose"),
    ("features", "kernel_error_sweep"),
    ("distance", "build_estimator"),
    ("distance", "insert"),
    ("distance", "query"),
    ("distance", "adaptive_stress"),
    ("lab", "test_vector_suite"),
    ("lab", "lipschitz_deviation"),
    ("lab", "ecdf_deviation"),
    ("cli", "run"),
)

# Per-layer metric -> (span name, statistic, unit).  Statistics: "calls",
# "total" (summed duration), "self" (summed self time), or an attribute the
# span recorded, summed over calls ("peak_bytes" takes the maximum).
LAYER_METRICS = {
    "hadamard.fwht_s": ("hadamard.fwht_in_place", "total", "s"),
    "hadamard.fwht_rows": ("hadamard.fwht_in_place", "rows", "count"),
    "streams.generator_calls": ("streams.generator", "calls", "count"),
    "ensemble.build_s": ("ensemble.build_ensemble", "total", "s"),
    "ensemble.embed_calls": ("ensemble.embed", "calls", "count"),
    "ensemble.embed_self_s": ("ensemble.embed", "self", "s"),
    "ensemble.embed_batch_self_s": ("ensemble.embed_batch", "self", "s"),
    "ensemble.embed_batch_rows": ("ensemble.embed_batch", "rows", "count"),
    "ensemble.embed_batch_peak_bytes": ("ensemble.embed_batch", "peak_bytes", "bytes"),
    "ensemble.distortion_self_s": ("ensemble.distortion_check", "self", "s"),
    "features.build_feature_map_s": ("features.build_feature_map", "total", "s"),
    "features.features_calls": ("features.features", "calls", "count"),
    "features.features_self_s": ("features.features", "self", "s"),
    "features.sweep_self_s": ("features.kernel_error_sweep", "self", "s"),
    "gaussian.rbf_kernel_calls": ("gaussian.rbf_kernel", "calls", "count"),
    "gaussian.rbf_kernel_s": ("gaussian.rbf_kernel", "total", "s"),
    "gaussian.expectation_calls": ("gaussian.gaussian_expectation", "calls", "count"),
    "gaussian.expectation_s": ("gaussian.gaussian_expectation", "total", "s"),
    "distance.insert_self_s": ("distance.insert", "self", "s"),
    "distance.query_self_s": ("distance.query", "self", "s"),
    "distance.gather_bytes_computed": ("distance.query", "gather_bytes", "bytes"),
    "distance.stress_self_s": ("distance.adaptive_stress", "self", "s"),
    "lab.lipschitz_self_s": ("lab.lipschitz_deviation", "self", "s"),
    "lab.ecdf_self_s": ("lab.ecdf_deviation", "self", "s"),
    "cli.run_self_s": ("cli.run", "self", "s"),
    "bench.cos_phase_s": ("bench.cos_phase", "total", "s"),
    "bench.check_s": ("bench.check", "total", "s"),
}


@contextmanager
def traced_memory():
    """Yield a dict that receives tracemalloc 'growth' and 'peak' in bytes.

    Both are relative to the traced size at entry.  Tracing is started only
    if it is not already on, so the blocks nest.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    box: dict = {}
    try:
        yield box
    finally:
        current, peak = tracemalloc.get_traced_memory()
        box["growth"] = current - base
        box["peak"] = peak - base
        if started:
            tracemalloc.stop()


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._paused = 0

    @contextmanager
    def span(self, name: str, *, untraced_inside: bool = False):
        """Record a span around the block.

        With untraced_inside, wrapped calls made inside the block (by the
        benchmark's checks) run without spans of their own.
        """
        idx = self._open(name)
        self._paused += untraced_inside
        try:
            yield
        finally:
            self._paused -= untraced_inside
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        memory = name == "ensemble.embed_batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                if memory:
                    with traced_memory() as mem:
                        result = fn(*args, **kwargs)
                    self.spans[idx][4]["peak_bytes"] = mem["peak"]
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_of is not None:
                self.spans[idx][4].update(attrs_of(args, kwargs))
            return result

        return wrapper

    def dump(self, path: str, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counters": self.counters, "spans": rows}, fh)
            fh.write("\n")


def _fwht_attrs(args, kwargs) -> dict:
    buf = args[0] if args else kwargs["buffer"]
    n = buf.shape[-1]
    # Each butterfly stage reads and writes the halves three times
    # (top += bot; bot *= -2; bot += top): 5 half-buffer reads and 3 writes,
    # i.e. 4 full buffers of traffic per stage, log2(n) stages.
    return {"rows": buf.size // n, "bytes": 4 * buf.nbytes * int(math.log2(n))}


def _embed_batch_attrs(args, kwargs) -> dict:
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    return {"rows": len(zs)}


def _query_attrs(args, kwargs) -> dict:
    est = args[0]
    params = args[2] if len(args) > 2 else kwargs["params"]
    k = params.k
    if k is None:
        k = _distance.default_sample_count(est.n, params.eps, params.delta)
    # The gather reads k sampled float64 coordinates of every stored point.
    return {"gather_bytes": est.n * k * 8}


_ATTRS = {
    "hadamard.fwht_in_place": _fwht_attrs,
    "ensemble.embed_batch": _embed_batch_attrs,
    "distance.query": _query_attrs,
}


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS function wherever an rhtsketch module binds it."""
    modules = [importlib.import_module("rhtsketch")] + [
        importlib.import_module(f"rhtsketch.{m}") for m in MODULES
    ]
    for mod_name, fn_name in TARGETS:
        original = getattr(importlib.import_module(f"rhtsketch.{mod_name}"), fn_name)
        wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer figures as {name: (value, unit)}.

    Every workload reaches every span; a metric whose span was never
    recorded reads NaN, which makes the run's ``correct`` false.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child_time[i]
        for key, value in attrs.items():
            s[key] = max(s[key], value) if key == "peak_bytes" else s[key] + value

    out = {}
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        if span not in stats:
            out[metric] = (math.nan, unit)
        else:
            value = stats[span][stat]
            out[metric] = (int(value) if unit in ("count", "bytes") else value, unit)
    fwht = stats.get("hadamard.fwht_in_place")
    gbytes = fwht["bytes"] / 1e9 if fwht else math.nan
    out["hadamard.fwht_gbytes_computed"] = (gbytes, "GB")
    out["hadamard.fwht_gbps_computed"] = (gbytes / out["hadamard.fwht_s"][0] if fwht else math.nan, "GB/s")
    # Stream draws: time in outermost streams.* spans (gaussian_block and
    # friends call generator inside).
    out["streams.draw_s"] = (sum(
        end - start for name, start, end, parent, _ in spans
        if name.startswith("streams.")
        and (parent < 0 or not spans[parent][0].startswith("streams."))), "s")
    out["distance.store_bytes"] = (recorder.counters.get("distance.store_bytes", math.nan), "bytes")
    # Accounting: the self times of all spans add up to the root spans
    # (bench.setup and bench.timed): library layers plus the benchmark's own
    # glue, checks and cos-plus-phase step.
    out["trace.wall_s"] = (sum(e - s for _, s, e, p, _ in spans if p < 0), "s")
    out["trace.layer_self_s"] = (
        sum(s["self"] for name, s in stats.items() if not name.startswith("bench.")), "s")
    out["bench.glue_self_s"] = (stats["bench.setup"]["self"] + stats["bench.timed"]["self"], "s")
    return out

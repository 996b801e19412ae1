#!/usr/bin/env python3
"""rhtsketch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are every end-to-end metric; with --trace 1 the run first
does the workload untraced, then again with span recorders installed, and
reports per-layer metrics (the spans go to perfbench/traces/).

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

without --workload runs every workload, each in its own process, and prints
a table of every metric with its unit and the operations attempted and
failed.  The package is imported from src/ of the checkout this file sits
in; the run fails if it is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACES = HERE / "traces"
WORKLOAD_NAMES = ("kernel-sweep", "distest-adaptive", "distest-wide", "verify-cli")
# Set-up samples per untraced run: this process's own import with the
# workload's build, then fresh-interpreter imports with rebuilds spread over
# the timed phase.  setup_s is the median of their sums.
SETUP_SAMPLES = 5

# BLAS and OpenMP pools get one thread, set before numpy is first imported
# (one is within the cap of nproc).  Each workload is a single closed-loop
# client whose BLAS calls are level-1 (dot products and norms of 10^5 to 10^6
# entries); a second OpenBLAS thread only spin-waits, doubling CPU use and
# widening the run-to-run spread without lowering wall time.  See README.md.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc malloc starts by serving every block of 128 KiB or more with its own
# mmap, and raises that threshold (up to 32 MiB) each time it frees a larger
# such block.  Until it has, the n x k temporaries of every query are mapped,
# faulted in and unmapped afresh, so a query's time depends on what the run
# happened to free before it: distest-wide's median query moved between 25
# and 41 ms within one run.  Pinning the thresholds where they end in a long
# run makes every run start in that state.  Blocks of 32 MiB or more are
# still mapped per allocation.
MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a libc without mallopt is left as is."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    except (OSError, AttributeError):
        pass

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import rhtsketch\n"
    "print(repr(time.perf_counter() - start))\n"
    "print(rhtsketch.__file__)\n"
)


def _inside_src(path) -> bool:
    return SRC.resolve() in Path(path).resolve().parents


def import_rhtsketch() -> float:
    """Import the package from src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rhtsketch

    elapsed = time.perf_counter() - start
    if not _inside_src(rhtsketch.__file__):
        raise ImportError(f"rhtsketch came from {rhtsketch.__file__}, not {SRC}")
    return elapsed


def fresh_import_seconds() -> float:
    """Import time of rhtsketch in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, origin = proc.stdout.split("\n")[:2]
    if not _inside_src(origin):
        raise ImportError(f"rhtsketch came from {origin}, not {SRC}")
    return float(seconds)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import_s = import_rhtsketch()
    import spans
    import workloads


    def body(run):
        return workloads.run_shape(run, name)

    if not trace:
        run = workloads.Run(seed, seconds, setup_samples=SETUP_SAMPLES,
                            import_probe=fresh_import_seconds)
        run.samples["import"].append(import_s)
        metrics = body(run)
        setups = [i + b for i, b in zip(run.samples["import"], run.samples["build"])]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        runs = [run]
    else:
        plain = workloads.Run(seed, seconds)
        body(plain)
        recorder = spans.Recorder()
        spans.install(recorder)
        traced = workloads.Run(seed, seconds, recorder=recorder, rounds=plain.rounds_done)
        body(traced)
        metrics = spans.layer_metrics(recorder)
        metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
        TRACES.mkdir(exist_ok=True)
        recorder.dump(str(TRACES / f"{name}-seed{seed}.json"),
                      {"workload": name, "seed": seed, "rounds": plain.rounds_done,
                       "untraced_wall_s": plain.wall})
        runs = [plain, traced]
    for run in runs:
        for failure in run.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": all(math.isfinite(value) for value, _ in metrics.values()),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }


def spawn(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in its own process; return its result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: int, trace: int) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        result = spawn(name, seed, seconds, trace)
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    pin_malloc_thresholds()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import rhtsketch from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

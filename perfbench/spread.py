#!/usr/bin/env python3
"""Run every workload repeatedly and show each metric's spread against its bound.

    python3 perfbench/spread.py [--runs 10] [--seed-base 1] [--workload NAME ...]
                                [--against perfbench/results/FILE.json]

Each run is a separate process with its own seed (seed-base, seed-base + 1,
...) and BENCHMARK.json's run_seconds.  For every end-to-end metric the
table gives the median, the first and third quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median and the bound from BENCHMARK.json.  A
spread under a third of the bound is marked "steady", under the bound "ok",
above it "OVER".  With --against, each median is also compared with the
median of an earlier set, in the metric's worse direction.  The exit code is
1 if any verdict is OVER, a run is not correct or the failed shares differ.
Raw results are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run as bench

BENCHMARK = bench.ROOT / "BENCHMARK.json"
RESULTS = bench.HERE / "results"


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=bench.WORKLOAD_NAMES)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    previous = json.loads(args.against.read_text())["runs"] if args.against else {}

    runs: dict[str, list] = {}
    ok = True
    for name in names:
        runs[name] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            start = time.perf_counter()
            result = bench.spawn(name, seed, seconds, 0)
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - start
            runs[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f}s, attempted "
                  f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        print(f"\n{name}: {args.runs} runs, failed shares {sorted(shares)}, "
              f"max wall {max(r['wall_s'] for r in runs[name]):.1f}s")
        ok = ok and len(shares) == 1 and all(r["correct"] for r in runs[name])
        for metric in sorted(runs[name][0]["metrics"]):
            bound = metrics[metric]["bound"]
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            med, q1, q3, spread = summarize(values)
            verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "OVER"
            ok = ok and verdict != "OVER"
            line = (f"  {metric:24s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                    f"spread {spread:6.3f} bound {bound:5.2f} {verdict}")
            if name in previous:
                old = statistics.median(
                    r["metrics"][metric]["value"] for r in previous[name])
                worse = (med - old) / old if metrics[metric]["better"] == "lower" else (old - med) / old
                shift_ok = worse <= bound
                ok = ok and shift_ok
                line += f" | vs earlier {old:.6g}: worse by {worse:+.3f} {'ok' if shift_ok else 'OVER'}"
            print(line)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1) + "\n")
    print(f"\nraw results: {out.relative_to(bench.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

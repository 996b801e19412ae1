"""Check that the CLI's reports are byte-identical to those of another commit.

Usage: python tools/identity.py [REF]   (REF defaults to HEAD)

Extracts ``git archive REF`` into a temporary directory, then runs the same
eleven CLI cases there and in the working tree: ``verify`` at two shapes,
``kernel`` on generated and on CSV points, ``distest`` plain, with
``--stress`` under both adversaries, at ``--m 1100`` (chunks of 32 points,
so the first query seals two chunks at once and 6 points stay point-major)
and at ``--k 537`` (the truncation quantile is each row's maximum; the
default k, about 8,200, partitions), ``lowerbound``, and ``bench``.  Each
case is written as JSON and as CSV, to stdout and through ``--output``: 44
outputs per tree.  Before the byte
comparison, ``runtime_ms`` is zeroed and ``bench``'s timing values are masked
(its ``d`` column is kept).  Prints one verdict line and exits 0 when every
output matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "verify-d100": ["verify", "--d", "100", "--m", "64", "--n-random", "4", "--pairs", "20"],
    "verify-d256": ["verify", "--d", "256", "--m", "1085", "--pairs", "100"],
    "kernel-generated": ["kernel", "--d", "16", "--n", "12", "--m", "64"],
    "kernel-csv": ["kernel", "--input", "{points}", "--m", "64"],
    "distest": ["distest", "--input", "{points}", "--query", "{queries}", "--m", "40"],
    "distest-stress-greedy": ["distest", "--input", "{points}", "--query", "{queries}",
                              "--m", "40", "--stress", "6", "--adversary", "greedy-feedback"],
    "distest-stress-basis": ["distest", "--input", "{points}", "--query", "{queries}",
                             "--m", "40", "--stress", "6", "--adversary", "basis"],
    "distest-chunks": ["distest", "--input", "{points}", "--query", "{queries}", "--m", "1100"],
    "distest-top-rank": ["distest", "--input", "{points}", "--query", "{queries}", "--m", "40",
                         "--k", "537"],
    "lowerbound": ["lowerbound", "--d", "32", "--m", "8", "--trials", "40"],
    "bench": ["bench", "--d", "1024", "--m", "2"],
}

_JSON_TIMING = re.compile(
    rb'("(?:runtime_ms|fwht_ms|embed_ms|naive_ms|speedup_embed_vs_naive)": )[^,\n]+'
)


def _write_inputs(folder: Path) -> dict:
    """Points and queries shared by both trees, as CSV of repr() floats."""
    rng = np.random.default_rng(2024)
    paths = {}
    for name, rows in (("points", 70), ("queries", 3)):
        path = folder / f"{name}.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in rng.normal(size=(rows, 12))))
        paths[name] = str(path)
    return paths


def _mask(case: str, fmt: str, data: bytes) -> bytes:
    if fmt == "json":
        return _JSON_TIMING.sub(rb"\g<1>0", data)
    if case == "bench":  # keep the d column, mask the timings
        lines = data.split(b"\r\n")
        return b"\r\n".join([lines[0]] + [ln.split(b",")[0] for ln in lines[1:]])
    return data


def _outputs(tree: Path, inputs: dict, out_dir: Path) -> dict:
    """{(case, format, destination): masked bytes} for one source tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "RHT_SEED": "7"}
    out_dir.mkdir()
    results = {}
    for case, args in CASES.items():
        args = [a.format(**inputs) for a in args]
        for fmt in ("json", "csv"):
            base = [sys.executable, "-m", "rhtsketch.cli", *args, "--format", fmt]
            name = f"{case}.{fmt}"  # relative, so both trees' configs name the same path
            stdout = subprocess.run(base, env=env, check=True, capture_output=True).stdout
            subprocess.run(base + ["--output", name], env=env, cwd=out_dir, check=True,
                           capture_output=True)
            results[case, fmt, "stdout"] = _mask(case, fmt, stdout)
            results[case, fmt, "file"] = _mask(case, fmt, (out_dir / name).read_bytes())
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    ref = parser.parse_args(argv).ref
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", ref],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        inputs = _write_inputs(tmp)
        theirs = _outputs(tmp / "ref", inputs, tmp / "out-ref")
        ours = _outputs(ROOT, inputs, tmp / "out-tree")
    differ = sorted(".".join(key[:2]) + f" ({key[2]})" for key in ours if ours[key] != theirs[key])
    verdict = (f"identity: {len(ours) - len(differ)} of {len(ours)} CLI outputs "
               f"byte-identical to {ref} ({sha}), runtime_ms and bench timings masked")
    print(verdict + (f"; differ: {', '.join(differ)}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

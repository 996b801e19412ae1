"""Check that the tests still catch a fixed list of deliberate bugs.

Usage: python tools/mutants.py

Each mutant is one literal patch (file, old text, new text) and the pytest
node ids that must fail under it.  For each mutant the script extracts
``git archive HEAD`` into a fresh temporary directory, replaces the one
occurrence of the old text, runs only those node ids there, and prints one
line: ``killed`` when every listed test fails, ``SURVIVED`` when one passes
(naming it), and ``stale`` when the old text no longer occurs exactly once or
pytest finds none of the tests.  A stale mutant is refreshed or dropped in
the change that made it stale.  Exits 0 only when every mutant is killed.
It is not part of the test suite: each mutant runs pytest on its own copy.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = "tests/test_golden.py::test_transform_outputs_match_golden_digests"
QUERY_GOLDEN = "tests/test_golden.py::test_query_outputs_match_golden_digests"
SEVERAL = "tests/test_distance.py::test_query_sealing_several_chunks_matches_reference"
REFUSED = "tests/test_distance.py::test_seal_refused_its_scratch_leaves_store_consistent"
REJECTED = "tests/test_distance.py::test_rejected_insert_leaves_estimator_unchanged"
SPLIT = "tests/test_ensemble.py::test_split_embed_batch_matches_per_block_reference"
SPLIT_GOLDEN = "tests/test_golden.py::test_split_embeddings_match_golden_digest_at_each_worker_count"
ERRSTATE = "tests/test_hadamard.py::test_split_ranges_keep_the_callers_error_state"
BOUNDARY = "tests/test_ensemble.py::test_split_starts_at_two_tiles"
QUANTILE_BITS = "tests/test_distance.py::test_quantile_bits_match_partition_reference"
COS_CLOSED_FORM = "tests/test_gaussian.py::test_quadrature_agrees_with_closed_form"

# name: (file, old text, new text, node ids that must fail)
MUTANTS = {
    "butterfly computes top - bot directly": (
        "src/rhtsketch/hadamard.py",
        "        top += bot\n        bot *= -2\n        bot += top\n",
        "        diff = top - bot\n        top += bot\n        bot[...] = diff\n",
        [f"{GOLDEN}[fwht_in_place]", f"{GOLDEN}[fwht_in_place_tiles]"],
    ),
    "padded input one ulp up": (
        "src/rhtsketch/ensemble.py",
        "padded[:, : ensemble.dim.logical_d] = zs\n",
        "padded[:, : ensemble.dim.logical_d] = np.nextafter(zs, np.inf)\n",
        [f"{GOLDEN}[embed]", f"{GOLDEN}[embed_batch]"],
    ),
    "ragged last tile transformed through a copy": (
        "src/rhtsketch/hadamard.py",
        "tile = scratch[: block.size].reshape(c, len(block))",
        "tile = scratch.reshape(c, cols)[:, : len(block)]",
        [f"{GOLDEN}[fwht_in_place_tiles]"],
    ),
    "split drops its last range": (
        "src/rhtsketch/hadamard.py",
        "for i in range(1, parts)]",
        "for i in range(1, parts - 1)]",
        [f"{SPLIT}[200-1001-1-2]", f"{SPLIT}[50-601-7-3]", f"{SPLIT_GOLDEN}[2]",
         f"{SPLIT_GOLDEN}[3]",
         "tests/test_hadamard.py::test_tiled_fwht_bit_identical_at_each_worker_count[2]"],
    ),
    "split range runs outside the caller's context": (
        "src/rhtsketch/hadamard.py",
        "submit(contextvars.copy_context().run, fn,",
        "submit(fn,",
        [f"{ERRSTATE}[2]", f"{ERRSTATE}[3]"],
    ),
    "split multiply writes every range at the front": (
        "src/rhtsketch/ensemble.py",
        "out=dst[a:b]",
        "out=dst[: b - a]",
        [f"{SPLIT}[200-1001-1-2]", f"{SPLIT}[200-1001-1-3]", f"{SPLIT}[50-601-7-2]",
         f"{SPLIT}[50-601-7-3]", f"{SPLIT_GOLDEN}[2]", f"{SPLIT_GOLDEN}[3]"],
    ),
    "split threshold at one tile": (
        "src/rhtsketch/hadamard.py",
        "nbytes < 2 * _TILE_BYTES",
        "nbytes < _TILE_BYTES",
        [f"{BOUNDARY}[fwht_in_place]", f"{BOUNDARY}[embed_batch]"],
    ),
    "seal reads one chunk ahead": (
        "src/rhtsketch/distance.py",
        "np.copyto(scratch, est._chunks[c])",
        "np.copyto(scratch, est._chunks[min(c + 1, full - 1)])",
        [f"{SEVERAL}[256-257-8]", f"{SEVERAL}[16-64-64]",
         f"{REFUSED}[256-257-8]", f"{REFUSED}[16-64-64]"],
    ),
    "_sealed set before the scratch is taken": (
        "src/rhtsketch/distance.py",
        "    scratch = np.empty((width, est.ensemble.diagonals.size))\n"
        "    for c in range(est._sealed, full):\n",
        "    first, est._sealed = est._sealed, full\n"
        "    scratch = np.empty((width, est.ensemble.diagonals.size))\n"
        "    for c in range(first, full):\n",
        [f"{REFUSED}[256-257-8]", f"{REFUSED}[16-64-64]"],
    ),
    "new chunk appended before embed_batch's checks": (
        "src/rhtsketch/distance.py",
        "    embed_batch(est.ensemble, z[None, :], out=chunk[row : row + 1])\n"
        "    if not row:\n        est._chunks.append(chunk)\n",
        "    if not row:\n        est._chunks.append(chunk)\n"
        "    embed_batch(est.ensemble, z[None, :], out=chunk[row : row + 1])\n",
        [f"{REJECTED}[bad0-finite-64]", f"{REJECTED}[bad0-finite-128]"],
    ),
    "top-rank quantile drops the zero fallback": (
        "src/rhtsketch/distance.py",
        "redo = (q == 0.0) | np.isnan(q)",
        "redo = np.isnan(q)",
        [f"{QUANTILE_BITS}[0.9986501019683699]", f"{QUANTILE_BITS}[0.999]"],
    ),
    "top-rank path taken a rank early": (
        "src/rhtsketch/distance.py",
        "if rank == n:",
        "if rank >= n - 1:",
        [f"{QUERY_GOLDEN}[d16-m64-width64-k1001]", f"{QUANTILE_BITS}[0.9986501019683699]",
         f"{QUANTILE_BITS}[0.999]", f"{QUANTILE_BITS}[0.5]", f"{QUANTILE_BITS}[0.01]"],
    ),
    "estimates scaled by 1 + 2**-52": (
        "src/rhtsketch/distance.py",
        "    estimates *= _SQRT_HALF_PI\n",
        "    estimates *= _SQRT_HALF_PI * (1 + 2**-52)\n",
        [f"{QUERY_GOLDEN}[d256-m257-width8]", f"{QUERY_GOLDEN}[d16-m64-width64]"],
    ),
    "ECDF grid at half density": (
        "src/rhtsketch/lab.py",
        "np.linspace(-5.0, 5.0, 1001)",
        "np.linspace(-5.0, 5.0, 501)",
        ["tests/test_golden.py::test_verify_report_matches_golden_digest"],
    ),
    "cos expectation drops the sqrt(2) node scale": (
        "src/rhtsketch/gaussian.py",
        "np.cos(_SQRT_2 * sigma * nodes)",
        "np.cos(sigma * nodes)",
        ["tests/test_acceptance.py::test_criterion_3_cosine_expectation",
         *(f"{COS_CLOSED_FORM}[cos-{sigma}]" for sigma in ("0.1", "0.5", "1.0", "2.0", "4.0"))],
    ),
    "cli imported by the package": (
        "src/rhtsketch/__init__.py",
        "from . import distance,",
        "from . import cli, distance,",
        ["tests/test_package.py::test_package_import_loads_only_the_bound_modules",
         "tests/test_package.py::test_cli_module_runs_without_warnings"],
    ),
    "CSV read without dropping a byte-order mark": (
        "src/rhtsketch/csvio.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        ["tests/test_csvio.py::test_byte_order_mark_keeps_the_first_row"],
    ),
}


def _failed(output: str) -> set:
    """Node ids that pytest's short summary reports as failed or errored."""
    ids = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.add(line[len(tag):].split(" - ")[0].strip())
    return ids


def _verdict(archive: bytes, path: str, old: str, new: str, node_ids: list) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"stale ({path} holds the old text {text.count(old)} times)"
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if done.returncode not in (0, 1):
        return f"stale (pytest exit {done.returncode}: tests not found or not run)"
    passed = [i for i in node_ids if i not in _failed(done.stdout)]
    if passed:
        return f"SURVIVED ({', '.join(passed)} passed)"
    return "killed"


def main() -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                             check=True, capture_output=True).stdout
    killed = 0
    for name, (path, old, new, node_ids) in MUTANTS.items():
        verdict = _verdict(archive, path, old, new, node_ids)
        killed += verdict == "killed"
        print(f"{name}: {verdict}", flush=True)
    print(f"mutants: {killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

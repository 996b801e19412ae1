import csv
import io
import json
import re

import numpy as np
import pytest

from rhtsketch.cli import (
    EXIT_BAD_CSV,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    resolve_seed,
    run,
)

VERIFY_SMALL = ["verify", "--d", "16", "--m", "8", "--n-random", "1", "--pairs", "2"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


def null_runtime(report):
    report = dict(report)
    report["runtime_ms"] = None
    for sub in report.values():
        if isinstance(sub, dict) and "runtime_ms" in sub:
            sub["runtime_ms"] = None
    return report


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture()
def no_env_seed(monkeypatch):
    monkeypatch.delenv("RHT_SEED", raising=False)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "bench" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    assert run(["bench", "--bogus"]) == EXIT_USAGE


def test_distest_requires_input(capsys):
    assert run(["distest", "--query", "q.csv"]) == EXIT_USAGE


def test_verify_report_shape(capsys, no_env_seed):
    report = run_json(capsys, VERIFY_SMALL + ["--seed", "3"])
    assert report["schema_version"] == 1
    assert report["config"]["command"] == "verify"
    assert report["config"]["d"] == 16
    assert report["config"]["m"] == 8
    assert report["config"]["seed"] == 3
    assert isinstance(report["runtime_ms"], int)
    assert set(report["ecdf"]) == {"flat", "basis"}
    assert report["max_deviation"] >= report["distortion_max"]
    labels = [cid for cid, _ in report["lipschitz"]["per_case"]]
    assert any("random_0" in cid for cid in labels)


def test_verify_runs_are_deterministic(capsys, no_env_seed):
    first = run_json(capsys, VERIFY_SMALL)
    second = run_json(capsys, VERIFY_SMALL)
    assert null_runtime(first) == null_runtime(second)


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("RHT_SEED", "99")
    report = run_json(capsys, VERIFY_SMALL + ["--seed", "7"])
    assert report["config"]["seed"] == 7


def test_env_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("RHT_SEED", "11")
    via_env = run_json(capsys, VERIFY_SMALL)
    assert via_env["config"]["seed"] == 11
    via_flag = run_json(capsys, VERIFY_SMALL + ["--seed", "11"])
    assert null_runtime(via_env) == null_runtime(via_flag)


def test_default_seed_is_zero(capsys, no_env_seed):
    report = run_json(capsys, VERIFY_SMALL)
    assert report["config"]["seed"] == 0


def test_malformed_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RHT_SEED", "not-a-seed")
    assert run(VERIFY_SMALL) == EXIT_USAGE
    assert "RHT_SEED" in capsys.readouterr().err


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.setenv("RHT_SEED", "5")
    assert resolve_seed(2) == 2
    assert resolve_seed(None) == 5
    monkeypatch.delenv("RHT_SEED")
    assert resolve_seed(None) == 0


def test_output_file_and_silence(capsys, tmp_path, no_env_seed):
    target = tmp_path / "report.json"
    code = run(VERIFY_SMALL + ["--output", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["config"]["output_path"] == str(target)


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = run(["lowerbound", "--d", "8", "--m", "2", "--trials", "2",
                "--output", str(target)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rhtsketch: cannot write {target}: " in captured.err
    assert not target.exists()


def _distest_stress_argv(tmp_path):
    rng = np.random.default_rng(1)
    pts = write_csv(tmp_path / "p.csv", rng.standard_normal((5, 6)).tolist())
    q = write_csv(tmp_path / "q.csv", rng.standard_normal((2, 6)).tolist())
    return ["distest", "--input", pts, "--query", q, "--m", "16", "--k", "32",
            "--stress", "2"]


def _kernel_csv_argv(tmp_path):
    pts = write_csv(tmp_path / "p.csv", [[0.5, 0.0], [0.0, 0.5], [0.3, 0.3]])
    return ["kernel", "--input", pts, "--m", "32"]


# (argv builder, CSV header) for every command whose report --output writes.
OUTPUT_CASES = {
    "bench": (lambda tmp: ["bench", "--d", "16", "--m", "1"],
              ["d", "fwht_ms", "embed_ms", "naive_ms", "speedup_embed_vs_naive"]),
    "verify": (lambda tmp: list(VERIFY_SMALL), ["case_id", "deviation"]),
    "kernel": (lambda tmp: ["kernel", "--d", "4", "--n", "3", "--m", "16"],
               ["case_id", "deviation"]),
    "kernel-input": (_kernel_csv_argv, ["case_id", "deviation"]),
    "distest-stress": (_distest_stress_argv, ["query_index", "point_index", "estimate"]),
    "lowerbound": (lambda tmp: ["lowerbound", "--d", "4", "--m", "4", "--trials", "3"],
                   ["trial", "basis_max", "baseline_norm"]),
}

_BENCH_TIMING = r'"(fwht_ms|embed_ms|naive_ms|speedup_embed_vs_naive)": [^,\n]+'


def _comparable(command, fmt, text):
    """The report text with runtime_ms and output_path zeroed, and bench timings dropped."""
    if fmt == "csv":
        if command == "bench":
            text = "\r\n".join(line.split(",")[0] for line in text.split("\r\n"))
        return text
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)
    text = re.sub(r'"output_path": "[^"\n]*"', '"output_path": null', text)
    return re.sub(_BENCH_TIMING, r'"\1": 0', text) if command == "bench" else text


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
def test_output_file_bytes_match_stdout(capsys, tmp_path, no_env_seed, command, fmt):
    build_argv, header = OUTPUT_CASES[command]
    argv = build_argv(tmp_path) + ["--format", fmt]
    assert run(argv) == EXIT_OK
    printed = capsys.readouterr().out
    target = tmp_path / f"report.{fmt}"
    assert run(argv + ["--output", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    written = target.read_bytes().decode("utf-8")
    assert _comparable(command, fmt, written) == _comparable(command, fmt, printed)
    if fmt == "csv":
        assert written.startswith(",".join(header) + "\r\n")
    else:
        assert json.loads(written)["config"]["output_path"] == str(target)


def test_verify_csv_format(capsys, no_env_seed):
    code = run(VERIFY_SMALL + ["--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["case_id", "deviation"]
    assert rows[-1][0] == "distortion_max"
    # floats round-trip exactly through repr
    assert float(rows[-1][1]) == float(rows[-1][1])


def test_invalid_eps_is_invariant_violation(capsys, tmp_path):
    pts = write_csv(tmp_path / "p.csv", [[1.0, 0.0], [0.0, 1.0]])
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0]])
    code = run(["distest", "--input", pts, "--query", q, "--eps", "0.7"])
    assert code == EXIT_INVARIANT
    assert "invariant" in capsys.readouterr().err


def test_invalid_d_is_invariant_violation(capsys):
    assert run(["bench", "--d", "0"]) == EXIT_INVARIANT


def test_ragged_csv_is_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0]])
    code = run(["distest", "--input", str(bad), "--query", q])
    assert code == EXIT_BAD_CSV
    assert "CSV" in capsys.readouterr().err


def test_non_finite_csv_cell_is_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nan\n")
    code = run(["distest", "--input", str(bad), "--query", str(bad), "--m", "4"])
    assert code == EXIT_BAD_CSV
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_format_error(capsys, tmp_path):
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0]])
    code = run(["distest", "--input", str(tmp_path / "nope.csv"), "--query", q])
    assert code == EXIT_BAD_CSV


def test_width_mismatch_is_format_error(capsys, tmp_path):
    pts = write_csv(tmp_path / "p.csv", [[1.0, 0.0], [0.0, 1.0]])
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0, 0.0]])
    assert run(["distest", "--input", pts, "--query", q]) == EXIT_BAD_CSV


def test_distest_coincident_query_estimates_zero(capsys, tmp_path, no_env_seed):
    pts = write_csv(tmp_path / "p.csv", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0, 0.0, 0.0]])
    report = run_json(
        capsys,
        ["distest", "--input", pts, "--query", q, "--m", "32", "--k", "64"],
    )
    estimates = report["queries"][0]["estimates"]
    assert len(estimates) == 2
    assert estimates[0] == 0.0
    assert estimates[1] > 0.5


def test_distest_header_row_is_skipped(capsys, tmp_path, no_env_seed):
    pts = write_csv(tmp_path / "p.csv", [[1.0, 0.0]], header=["x0", "x1"])
    q = write_csv(tmp_path / "q.csv", [[0.0, 1.0]])
    report = run_json(
        capsys, ["distest", "--input", pts, "--query", q, "--m", "16", "--k", "32"]
    )
    assert report["n"] == 1


def test_distest_csv_rows(capsys, tmp_path, no_env_seed):
    pts = write_csv(tmp_path / "p.csv", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    q = write_csv(tmp_path / "q.csv", [[1.0, 0.0], [0.5, 0.5]])
    code = run(
        ["distest", "--input", pts, "--query", q, "--m", "16", "--k", "32",
         "--format", "csv"]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["query_index", "point_index", "estimate"]
    assert len(rows) == 1 + 2 * 3
    assert [r[:2] for r in rows[1:]] == [
        ["0", "0"], ["0", "1"], ["0", "2"], ["1", "0"], ["1", "1"], ["1", "2"]
    ]


def test_distest_stress_block(capsys, tmp_path, no_env_seed):
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((6, 8))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    pts = write_csv(tmp_path / "p.csv", raw.tolist())
    q = write_csv(tmp_path / "q.csv", [raw[0].tolist()])
    report = run_json(
        capsys,
        ["distest", "--input", pts, "--query", q, "--m", "64", "--k", "256",
         "--stress", "3", "--adversary", "basis"],
    )
    assert len(report["stress"]["per_case"]) == 3
    assert report["max_deviation"] == report["stress"]["max_deviation"]


def test_kernel_with_input_csv(capsys, tmp_path, no_env_seed):
    pts = write_csv(
        tmp_path / "p.csv",
        [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.3, 0.3]],
    )
    report = run_json(capsys, ["kernel", "--input", pts, "--m", "512"])
    n_pairs = 4 * 5 // 2
    assert len(report["kernel_sweep"]["per_case"]) == n_pairs
    assert report["max_deviation"] < 0.2
    assert sum(report["kernel_sweep"]["params"]["histogram_counts"]) == n_pairs


def test_kernel_generated_points(capsys, no_env_seed):
    report = run_json(
        capsys, ["kernel", "--d", "8", "--n", "6", "--eps", "0.3", "--delta", "0.1"]
    )
    # diameter of the unit ball is at most 2, so the default block count
    # is bounded by ceil(eps^-2 * 4 * ln(2/delta))
    assert report["kernel_sweep"]["params"]["m"] <= int(np.ceil(8 / 0.3**2 * 4 * np.log(20)))
    assert len(report["kernel_sweep"]["per_case"]) == 6 * 7 // 2


def test_lowerbound_report(capsys, no_env_seed):
    report = run_json(
        capsys, ["lowerbound", "--d", "16", "--m", "8", "--trials", "50"]
    )
    assert report["baseline_n"] == int(np.ceil(16 / (2 * 0.25) ** 2))
    assert len(report["basis_max"]["per_trial"]) == 50
    assert len(report["baseline"]["per_trial"]) == 50
    assert 0.0 <= report["fraction_baseline_ge_eps"] <= 1.0


def test_lowerbound_csv(capsys, no_env_seed):
    code = run(["lowerbound", "--d", "4", "--m", "4", "--trials", "5",
                "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["trial", "basis_max", "baseline_norm"]
    assert len(rows) == 6


def test_bench_small(capsys, no_env_seed):
    report = run_json(capsys, ["bench", "--d", "32", "--m", "1"])
    dims = [row["d"] for row in report["timings"]]
    assert dims == [8, 16, 32]
    for row in report["timings"]:
        assert row["fwht_ms"] >= 0.0
        assert row["embed_ms"] > 0.0
        assert row["naive_ms"] is not None
        assert row["speedup_embed_vs_naive"] > 0.0

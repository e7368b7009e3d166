import json
import shutil
import subprocess

import pytest

import qwcover.cli
from conftest import DEMO_TEXT
from qwcover import CliqueCover, InvalidCoverError
from qwcover.cli import main

ALL_NAMES = ["gc", "lf", "sl", "dsatur", "rlf", "db", "cosine", "ramsey", "bkt"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_single_heuristic_json(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "lf",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["total_terms"] == 7
        (entry,) = report["results"]
        assert entry["heuristic"] == "lf"
        assert entry["n_groups"] == 2
        assert entry["max_size"] == 4
        assert entry["size_std"] == 0.5
        assert entry["groups"][0]["terms"] == [0, 1, 2, 3]
        assert entry["groups"][0]["basis"] == {"0": "Z", "1": "Z", "2": "Z", "3": "Z"}
        assert entry["groups"][1]["basis"] == {"0": "Y", "1": "Y", "2": "X", "3": "X"}
        assert "wall_ms" not in entry

    def test_all_heuristics_two_groups(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "all",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [r["heuristic"] for r in report["results"]] == ALL_NAMES
        assert all(r["n_groups"] == 2 for r in report["results"])

    def test_text_format_lists_groups(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "lf",
        )
        assert code == 0
        assert "== lf: 2 groups, max size 4" in out
        assert "basis: 0:Z 1:Z 2:Z 3:Z" in out
        assert "[0] 1.0 [Z0]" in out

    def test_timings_flag_adds_wall_ms(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "lf",
            "--format", "json", "--timings",
        )
        assert code == 0
        assert "wall_ms" in json.loads(out)["results"][0]

    def test_output_file(self, demo_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "gc",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"][0]["n_groups"] == 2

    def test_deterministic_json_reports(self, demo_file, capsys):
        _, first, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "all",
            "--format", "json",
        )
        _, second, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "all",
            "--format", "json",
        )
        assert first.encode() == second.encode()

    def test_deterministic_text_reports(self, demo_file, capsys):
        _, first, _ = run_cli(capsys, "run", "--input", str(demo_file))
        _, second, _ = run_cli(capsys, "run", "--input", str(demo_file))
        assert first == second

    def test_bkt_skipped_above_threshold_under_all(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "all",
            "--format", "json", "--bkt-skip-above", "3",
        )
        assert code == 0
        entries = {r["heuristic"]: r for r in json.loads(out)["results"]}
        assert "skipped" in entries["bkt"]
        assert entries["lf"]["n_groups"] == 2

    def test_explicit_bkt_ignores_skip_threshold(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--algorithm", "bkt",
            "--format", "json", "--bkt-skip-above", "3",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["n_groups"] == 2


class TestCompare:
    def test_demo_row(self, demo_file, capsys):
        code, out, _ = run_cli(capsys, "compare", "--input", str(demo_file))
        assert code == 0
        assert "7 | 2 2 2 2 2 2 2 2 2" in out

    def test_two_copies_identical_rows(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--input", str(demo_file), "--input", str(demo_file),
        )
        assert code == 0
        rows = [line for line in out.splitlines() if str(demo_file) in line]
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_json_format(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--input", str(demo_file), "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["inputs"][0]["total_terms"] == 7
        assert report["inputs"][0]["groups"]["lf"] == 2

    def test_compare_matches_run(self, demo_file, capsys):
        _, compare_out, _ = run_cli(
            capsys, "compare", "--input", str(demo_file), "--format", "json",
        )
        groups = json.loads(compare_out)["inputs"][0]["groups"]
        for name in ALL_NAMES:
            _, run_out, _ = run_cli(
                capsys, "run", "--input", str(demo_file), "--algorithm", name,
                "--format", "json",
            )
            assert json.loads(run_out)["results"][0]["n_groups"] == groups[name]


class TestErrors:
    def test_unknown_heuristic_usage_error(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", str(demo_file), "--algorithm", "magic"])
        assert excinfo.value.code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--input", "nope.ham")
        assert code == 1
        assert "no such input file" in err

    def test_parse_error_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.ham"
        bad.write_text("1.0 [Z0]\n???\n")
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.ham"
        empty.write_text("")
        code, _, err = run_cli(capsys, "run", "--input", str(empty))
        assert code == 2
        assert "line 1: empty input" in err

    def test_budget_error_single_algorithm(self, tmp_path, capsys):
        lines = [f"1.0 [{' '.join(f'Z{q}' for q in range(i))}]" for i in range(1, 26)]
        lines += [f"1.0 [X{q}]" for q in range(25)]
        dense = tmp_path / "dense.ham"
        dense.write_text("\n".join(lines))
        code, _, err = run_cli(
            capsys, "run", "--input", str(dense), "--algorithm", "bkt",
            "--bkt-budget", "2",
        )
        assert code == 3

    def test_budget_error_under_all_still_reports_others(self, tmp_path, capsys):
        lines = [f"1.0 [{' '.join(f'Z{q}' for q in range(i))}]" for i in range(1, 26)]
        lines += [f"1.0 [X{q}]" for q in range(25)]
        dense = tmp_path / "dense.ham"
        dense.write_text("\n".join(lines))
        code, out, _ = run_cli(
            capsys, "run", "--input", str(dense), "--algorithm", "all",
            "--format", "json", "--bkt-budget", "2",
        )
        assert code == 0
        entries = {r["heuristic"]: r for r in json.loads(out)["results"]}
        assert "error" in entries["bkt"]
        assert entries["lf"]["n_groups"] > 0

    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_bad_bkt_budget_is_usage_error(self, demo_file, budget, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", str(demo_file), "--bkt-budget", budget])
        assert excinfo.value.code == 1
        assert "--bkt-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["-1", "many"])
    def test_bad_bkt_skip_above_is_usage_error(self, demo_file, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", str(demo_file), "--bkt-skip-above", size])
        assert excinfo.value.code == 1
        assert "--bkt-skip-above" in capsys.readouterr().err

    def test_zero_bkt_skip_above_skips_bkt(self, demo_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(demo_file), "--format", "json",
            "--bkt-skip-above", "0",
        )
        assert code == 0
        entries = {r["heuristic"]: r for r in json.loads(out)["results"]}
        assert "skipped" in entries["bkt"]

    def test_run_rejects_multiple_inputs(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--input", str(demo_file), "--input", str(demo_file),
            ])
        assert excinfo.value.code == 1

    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ham"
        bad.write_bytes(b"1.0 [Z0]\n1.0 [Z1\xff]\n")
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert "line 2, column 8" in err

    def test_output_in_missing_directory(self, demo_file, tmp_path, capsys):
        target = tmp_path / "nodir" / "r.json"
        code, _, err = run_cli(
            capsys, "run", "--input", str(demo_file), "--output", str(target),
        )
        assert code == 1
        assert f"cannot write report to {target}" in err
        assert "no such input file" not in err

    def test_output_is_a_directory(self, demo_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--input", str(demo_file), "--output", str(tmp_path),
        )
        assert code == 1
        assert f"cannot write report to {tmp_path}" in err

    @pytest.mark.parametrize("algorithm", ["lf", "ramsey"])
    def test_non_clique_cover_rejected(self, demo_file, monkeypatch, algorithm):
        # the demo's seven terms do not all qubit-wise commute
        monkeypatch.setattr(
            qwcover.cli, "solve_mcc",
            lambda g, heuristic, **_: CliqueCover((frozenset(range(g.n)),), heuristic),
        )
        with pytest.raises(InvalidCoverError, match="not a clique"):
            main(["run", "--input", str(demo_file), "--algorithm", algorithm])


@pytest.mark.skipif(shutil.which("qwcover") is None, reason="entry point not installed")
class TestConsoleScript:
    def test_installed_entry_point(self, demo_file):
        completed = subprocess.run(
            ["qwcover", "run", "--input", str(demo_file), "--algorithm", "dsatur",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert json.loads(completed.stdout)["results"][0]["n_groups"] == 2

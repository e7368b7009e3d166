import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwcover.cli
from conftest import DEMO_TEXT
from qwcover import (
    CliqueCover,
    Heuristic,
    InvalidCoverError,
    MeasurementBasis,
    PauliAxis,
    compute_stats,
)
from qwcover.cli import _HeuristicResult, _render_run_json, main

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


def reference_run_report(path, h, results, args) -> str:
    """The run report built as a dict and laid out by ``json.dumps``: the
    reference the direct JSON writer must reproduce byte for byte."""
    records = []
    for r in results:
        record = {"heuristic": r.heuristic.value}
        if r.skipped is not None:
            record["skipped"] = r.skipped
        elif r.error is not None:
            record["error"] = r.error
        else:
            record.update(
                total_terms=h.n_terms,
                n_groups=r.stats.n_groups,
                max_size=r.stats.max_size,
                size_std=r.stats.size_std,
            )
            if args.timings:
                record["wall_ms"] = round(r.wall_ms, 3)
            record["groups"] = [
                {
                    "terms": sorted(group),
                    "basis": {str(q): str(axis) for q, axis in basis.assignment.items()},
                }
                for group, basis in zip(r.cover.groups, r.bases)
            ]
        records.append(record)
    report = {"input": path, "n_qubits": h.n_qubits, "total_terms": h.n_terms, "results": records}
    return json.dumps(report, indent=2) + "\n"


def _solved(heuristic, groups, bases, wall_ms=0.0):
    cover = CliqueCover(tuple(frozenset(g) for g in groups), heuristic)
    return _HeuristicResult(
        heuristic, cover=cover, stats=compute_stats(cover),
        bases=[MeasurementBasis(b) for b in bases], wall_ms=wall_ms,
    )


@st.composite
def run_reports(draw):
    """``(path, h, results, args)`` for the JSON writer: any text as the
    path and messages, results that are solved, skipped or failed, and
    covers that partition ``0..n_terms-1`` (possibly empty) with arbitrary
    bases (possibly empty)."""
    text = st.text(max_size=30)
    n_terms = draw(st.integers(0, 14))
    h = SimpleNamespace(n_qubits=draw(st.integers(0, 200)), n_terms=n_terms)
    results = []
    for heuristic in draw(st.lists(st.sampled_from(list(Heuristic)), min_size=1, unique=True)):
        kind = draw(st.sampled_from(["solved", "skipped", "error"]))
        if kind == "skipped":
            results.append(_HeuristicResult(heuristic, skipped=draw(text)))
        elif kind == "error":
            results.append(_HeuristicResult(heuristic, error=draw(text)))
        else:
            order = draw(st.permutations(range(n_terms)))
            cuts = sorted(draw(st.sets(st.integers(1, n_terms - 1)))) if n_terms > 1 else []
            bounds = [0, *cuts, n_terms] if n_terms else [0]
            groups = [order[a:b] for a, b in zip(bounds, bounds[1:])]
            basis = st.dictionaries(
                st.integers(0, 200), st.sampled_from([PauliAxis.X, PauliAxis.Y, PauliAxis.Z]),
                max_size=6,
            )
            bases = [draw(basis) for _ in groups]
            wall_ms = draw(st.floats(0.0, 1e7, allow_nan=False))
            results.append(_solved(heuristic, groups, bases, wall_ms))
    return draw(text), h, results, SimpleNamespace(timings=draw(st.booleans()))


_PINNED_REPORT = (
    'dir/\u00e9t\u00e9 "q" \\ back\\slash.ham',
    SimpleNamespace(n_qubits=3, n_terms=3),
    [
        _solved(Heuristic.LF, [[2, 0], [1]], [{0: PauliAxis.Z, 2: PauliAxis.X}, {}], 1.23456),
        _HeuristicResult(Heuristic.DB, skipped="graph has 3 vertices, above --bkt-skip-above=2"),
        _HeuristicResult(Heuristic.BKT, error='maximum-clique search exceeded 2 nodes "\u2026"'),
    ],
    SimpleNamespace(timings=True),
)


class TestRunJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(case=run_reports())
    @example(case=_PINNED_REPORT)
    @example(case=(
        "empty.ham", SimpleNamespace(n_qubits=1, n_terms=0),
        [_solved(Heuristic.GC, [], []), _HeuristicResult(Heuristic.RAMSEY, skipped="")],
        SimpleNamespace(timings=False),
    ))
    def test_matches_json_dumps(self, case):
        assert _render_run_json(*case) == reference_run_report(*case)

    def test_cli_reports_keep_json_dumps_layout(self, tmp_path, capsys):
        # zero terms (every group list empty), an identity-only group
        # (empty basis), a skipped bkt, timings, and a path that needs escaping
        inputs = {"z\u00e9ro \"q\" \\.ham": "0.0 [Z0]\n", "identity.ham": "1.0 []\n"}
        for name, text in inputs.items():
            path = tmp_path / name
            path.write_text(text)
            for extra in ([], ["--timings"], ["--bkt-skip-above", "0"]):
                code, out, _ = run_cli(
                    capsys, "run", "--input", str(path), "--format", "json", *extra,
                )
                assert code == 0
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
                assert json.loads(out)["input"] == str(path)


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

    def test_coefficients_summing_to_infinity_are_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "overflow.ham"
        bad.write_text("1e308 [Z0]\n0.5 [X1]\n1e308 [Z0]\n")
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert "line 3, column 1: coefficients of [Z0] sum to inf" in err

    def test_huge_qubit_index_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.ham"
        bad.write_text("0.5 [Z99999999999]\n")
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert "line 1, column 6: qubit index above the limit" in err

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


def test_cli_import_leaves_out_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, qwcover.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert completed.stdout == "False\n"


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

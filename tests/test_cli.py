import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwcover.cli
from conftest import DEMO_TEXT
from qwcover import (
    BasisConflictError,
    Heuristic,
    InvalidCoverError,
    PauliAxis,
    TermGraph,
    compute_stats,
    validate_cover,
)
from qwcover.cli import _HeuristicResult, _render_run_json, main

ALL_NAMES = ["gc", "lf", "sl", "dsatur", "rlf", "db", "cosine", "ramsey", "bkt"]
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dense_file(tmp_path) -> Path:
    """25 nested all-Z words and 25 one-qubit X words: a bkt cover needs
    more than 2 search nodes."""
    lines = [f"1.0 [{' '.join(f'Z{q}' for q in range(i))}]" for i in range(1, 26)]
    lines += [f"1.0 [X{q}]" for q in range(25)]
    path = tmp_path / "dense.ham"
    path.write_text("\n".join(lines))
    return path


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

    def test_output_keeps_undecodable_path_bytes(self, tmp_path, capsys):
        # argv decodes the byte 0xff to a lone surrogate; the report file
        # must hold the path's own bytes, as stdout would.
        raw = os.fsencode(tmp_path / "bad") + b"\xff.ham"
        with open(raw, "wb") as handle:
            handle.write(DEMO_TEXT.encode())
        target = tmp_path / "report.txt"
        code, _, _ = run_cli(
            capsys, "run", "--input", os.fsdecode(raw), "--output", str(target),
        )
        assert code == 0
        assert target.read_bytes().startswith(b"input: " + raw + b"\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_strict_utf8_stdout_gets_the_output_file_bytes(
        self, tmp_path, monkeypatch, command, fmt
    ):
        raw = os.fsencode(tmp_path / "bad") + b"\xff.ham"
        with open(raw, "wb") as handle:
            handle.write(DEMO_TEXT.encode())
        argv = [command, "--input", os.fsdecode(raw), "--algorithm", "gc", "--format", fmt]
        target = tmp_path / "report"
        assert main(argv + ["--output", str(target)]) == 0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("before\n")  # still in the text layer when the report comes
        assert main(argv) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == b"before\n" + target.read_bytes()

    def test_stdout_without_buffer_gets_the_text(self, demo_file, tmp_path, monkeypatch):
        argv = ["run", "--input", str(demo_file), "--algorithm", "all"]
        target = tmp_path / "report.txt"
        assert main(argv + ["--output", str(target)]) == 0
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert stdout.getvalue() == target.read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("name", GOLDEN_INPUTS)
    def test_each_distinct_group_derived_once(self, name, monkeypatch, capsys):
        derived = Counter()
        original = qwcover.cli.basis_of_group

        def counting(h, group):
            derived[group] += 1
            return original(h, group)

        monkeypatch.setattr(qwcover.cli, "basis_of_group", counting)
        monkeypatch.chdir(GOLDEN)  # the reports embed the bare file name
        expected = json.loads((GOLDEN / name).with_suffix(".json").read_text())
        distinct = {
            sum(1 << v for v in group["terms"])
            for record in expected["results"] for group in record["groups"]
        }
        for fmt, suffix in (("json", ".json"), ("text", ".txt")):
            derived.clear()
            code, out, _ = run_cli(
                capsys, "run", "--input", name, "--algorithm", "all", "--format", fmt,
            )
            assert code == 0
            assert out == (GOLDEN / name).with_suffix(suffix).read_text()
            assert derived == Counter(dict.fromkeys(distinct, 1))

    def test_word_check_runs_on_first_occurrence_of_shared_group(
        self, demo_file, monkeypatch, capsys
    ):
        # On a complete graph every heuristic reports the one group of all
        # seven terms, which the graph check accepts and the words refute.
        def complete_graph(h):
            return TermGraph([((1 << h.n_terms) - 1) ^ (1 << v) for v in range(h.n_terms)])

        derived = []
        original = qwcover.cli.basis_of_group

        def recording(h, group):
            derived.append(group)
            return original(h, group)

        monkeypatch.setattr(qwcover.cli, "build_qwc_graph", complete_graph)
        monkeypatch.setattr(qwcover.cli, "basis_of_group", recording)
        with pytest.raises(BasisConflictError, match="would need both"):
            main(["run", "--input", str(demo_file), "--algorithm", "all"])
        assert derived == [0b1111111]


def reference_run_report(path, h, bases, results, args) -> str:
    """The run report built as a dict and laid out by ``json.dumps``: the
    reference the direct JSON writer must reproduce byte for byte."""
    records = []
    for r in results:
        record = {"heuristic": r.heuristic.value}
        if r.error is not None:
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
                    "terms": [v for v in range(h.n_terms) if group >> v & 1],
                    "basis": {str(q): str(axis) for q, axis in bases[group].items()},
                }
                for group in r.cover
            ]
        records.append(record)
    report = {"input": path, "n_qubits": h.n_qubits, "total_terms": h.n_terms, "results": records}
    return json.dumps(report, indent=2) + "\n"


def _solved(heuristic, groups, wall_ms=0.0):
    cover = tuple(sum(1 << v for v in group) for group in groups)
    return _HeuristicResult(heuristic, cover=cover, stats=compute_stats(cover), wall_ms=wall_ms)


@st.composite
def run_reports(draw):
    """``(path, h, bases, results, args)`` for the JSON writer: any text as
    the path and messages, results that are solved or failed,
    covers that partition ``0..n_terms-1`` (possibly empty, possibly an
    earlier result's partition), and one arbitrary basis (possibly empty)
    per distinct group, as the CLI derives them."""
    text = st.text(max_size=30)
    n_terms = draw(st.integers(0, 14))
    h = SimpleNamespace(n_qubits=draw(st.integers(0, 200)), n_terms=n_terms)
    results = []
    partitions = []
    for heuristic in draw(st.lists(st.sampled_from(list(Heuristic)), min_size=1, unique=True)):
        if draw(st.booleans()):
            results.append(_HeuristicResult(heuristic, error=draw(text)))
        else:
            if partitions and draw(st.booleans()):
                groups = draw(st.sampled_from(partitions))
            else:
                order = draw(st.permutations(range(n_terms)))
                cuts = sorted(draw(st.sets(st.integers(1, n_terms - 1)))) if n_terms > 1 else []
                bounds = [0, *cuts, n_terms] if n_terms else [0]
                groups = [order[a:b] for a, b in zip(bounds, bounds[1:])]
                partitions.append(groups)
            wall_ms = draw(st.floats(0.0, 1e7, allow_nan=False))
            results.append(_solved(heuristic, groups, wall_ms))
    basis = st.dictionaries(
        st.integers(0, 200), st.sampled_from([PauliAxis.X, PauliAxis.Y, PauliAxis.Z]),
        max_size=6,
    ).map(lambda b: dict(sorted(b.items())))
    distinct = sorted({group for r in results if r.cover is not None for group in r.cover})
    bases = {group: draw(basis) for group in distinct}
    return draw(text), h, bases, results, SimpleNamespace(timings=draw(st.booleans()))


# lf and ramsey report the same two groups in different orders, and sl
# shares lf's singleton group {1}.
_PINNED_REPORT = (
    'dir/\u00e9t\u00e9 "q" \\ back\\slash.ham',
    SimpleNamespace(n_qubits=3, n_terms=3),
    {0b101: {0: PauliAxis.Z, 2: PauliAxis.X}, 0b010: {}, 0b001: {0: PauliAxis.Z},
     0b100: {2: PauliAxis.X}},
    [
        _solved(Heuristic.LF, [[2, 0], [1]], 1.23456),
        _solved(Heuristic.SL, [[1], [0], [2]]),
        _HeuristicResult(Heuristic.DB, error=""),
        _solved(Heuristic.RAMSEY, [[1], [0, 2]]),
        _HeuristicResult(Heuristic.BKT, error='maximum-clique search exceeded 2 nodes "\u2026"'),
    ],
    SimpleNamespace(timings=True),
)


class TestRunJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(case=run_reports())
    @example(case=_PINNED_REPORT)
    @example(case=(
        "empty.ham", SimpleNamespace(n_qubits=1, n_terms=0), {},
        [_solved(Heuristic.GC, []), _HeuristicResult(Heuristic.RAMSEY, error="")],
        SimpleNamespace(timings=False),
    ))
    def test_matches_json_dumps(self, case):
        assert _render_run_json(*case) == reference_run_report(*case)

    def test_cli_reports_keep_json_dumps_layout(self, tmp_path, capsys):
        # zero terms (every group list empty), an identity-only group
        # (empty basis), timings, and a path that needs escaping
        inputs = {"z\u00e9ro \"q\" \\.ham": "0.0 [Z0]\n", "identity.ham": "1.0 []\n"}
        for name, text in inputs.items():
            path = tmp_path / name
            path.write_text(text)
            for extra in ([], ["--timings"]):
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

    def test_failed_bkt_under_all_is_an_err_cell_and_null(self, dense_file, capsys):
        argv = ["compare", "--input", str(dense_file), "--bkt-budget", "2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith(f"{dense_file} 50 | ") and row.endswith(" err")
        assert all(cell.isdigit() for cell in row.split(" | ")[1].split()[:-1])
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        groups = json.loads(out)["inputs"][0]["groups"]
        assert list(groups) == ALL_NAMES and groups["bkt"] is None
        assert all(isinstance(groups[name], int) for name in ALL_NAMES[:-1])

    def test_failed_explicit_bkt_is_an_err_cell_and_exit_3(self, dense_file, capsys):
        argv = ["compare", "--input", str(dense_file), "--algorithm", "bkt", "--bkt-budget", "2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        assert out.splitlines() == ["input total | bkt", f"{dense_file} 50 | err"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 3
        assert json.loads(out) == {
            "inputs": [{"input": str(dense_file), "total_terms": 50, "groups": {"bkt": None}}]
        }


class TestErrors:
    def test_unknown_heuristic_usage_error(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", str(demo_file), "--algorithm", "magic"])
        assert excinfo.value.code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--input", "nope.ham")
        assert code == 1
        assert "no such input file" in err

    def test_unreadable_file_is_usage_error(self, demo_file, monkeypatch, capsys):
        # chmod 000 does not stop root from reading, so fake the failure.
        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", refuse)
        code, out, err = run_cli(capsys, "run", "--input", str(demo_file))
        assert code == 1
        assert out == ""
        assert err == f"qwcover: error: cannot read input file {demo_file}: Permission denied\n"

    def test_directory_input_is_not_reported_missing(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", "--input", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == f"qwcover: error: cannot read input file {tmp_path}: Is a directory\n"

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

    def test_budget_error_single_algorithm(self, dense_file, capsys):
        code, _, err = run_cli(
            capsys, "run", "--input", str(dense_file), "--algorithm", "bkt",
            "--bkt-budget", "2",
        )
        assert code == 3

    def test_budget_error_under_all_still_reports_others(self, dense_file, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--input", str(dense_file), "--algorithm", "all",
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

    # The size cutoff is gone: --bkt-budget alone bounds bkt, so the flag
    # is unknown whatever its value.
    @pytest.mark.parametrize("size", ["-1", "many", "5"])
    def test_bad_bkt_skip_above_is_usage_error(self, demo_file, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", str(demo_file), "--bkt-skip-above", size])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --bkt-skip-above" in capsys.readouterr().err

    def test_run_rejects_multiple_inputs(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--input", str(demo_file), "--input", str(demo_file),
            ])
        assert excinfo.value.code == 1

    def test_compare_rejects_timings(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--input", str(demo_file), "--timings"])
        assert excinfo.value.code == 1

    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ham"
        bad.write_bytes(b"1.0 [Z0]\n1.0 [Z1\xff]\n")
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert "line 2, column 8" in err

    @pytest.mark.parametrize("data, where", [
        (b"1.0 [Z0]\r2.0 [Z1]\r\xff [Z2]\r", "line 3, column 1"),
        (b"1.0 [Z0]\r\n2.0 [Z1]\r\n3.0 [Z2\xff]\r\n", "line 3, column 8"),
        (b"\r\r\n1.0 [Z1\xff]", "line 3, column 8"),
        (b"1.0 [Z0]\n# \xc3\xa9\xe2\x82\xac \xff\n", "line 2, column 6"),
        # The parser drops one byte-order mark at the start and counts
        # line 1's columns after it; later lines keep their columns.
        (b"\xef\xbb\xbf1.0 [X0 \xff]\n", "line 1, column 9"),
        (b"\xef\xbb\xbf\xff\n", "line 1, column 1"),
        (b"\xef\xbb\xbf\xef\xbb\xbf\xff\n", "line 1, column 2"),
        (b"\xef\xbb\xbf1.0 [Z0]\n2.0 [Z1\xff]\n", "line 2, column 8"),
    ])
    def test_non_utf8_byte_located_like_parse_errors(self, tmp_path, capsys, data, where):
        # Lines end at \n, \r\n or \r; columns count characters, not bytes.
        bad = tmp_path / "bad.ham"
        bad.write_bytes(data)
        code, _, err = run_cli(capsys, "run", "--input", str(bad))
        assert code == 2
        assert f"{where}: invalid UTF-8 byte 0xff" in err

    @pytest.mark.parametrize("format", ["text", "json"])
    def test_byte_order_mark_input_reports_as_without(self, tmp_path, monkeypatch, capsys, format):
        # The same relative path in two directories, so the reports' input
        # lines agree.
        text = b"# qubits: 2\n0.5 [Z0]\n0.25 [X1]\n"
        reports = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "h.ham").write_bytes(data)
            monkeypatch.chdir(tmp_path / name)
            code, out, _ = run_cli(capsys, "run", "--input", "h.ham", "--format", format)
            assert code == 0
            reports.append(out)
        assert reports[1] == reports[0]

    def test_output_in_missing_directory(self, demo_file, tmp_path, capsys):
        target = tmp_path / "nodir" / "r.json"
        code, _, err = run_cli(
            capsys, "run", "--input", str(demo_file), "--output", str(target),
        )
        assert code == 1
        assert f"cannot write report to {target}" in err
        assert "no such input file" not in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_stdout_that_cannot_encode_the_path_is_an_output_error(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # A JSON report escapes the path; a text report holds it as it is.
        path = tmp_path / "d\u00e9mo.ham"
        path.write_text(DEMO_TEXT)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([command, "--input", str(path), "--algorithm", "lf"]) == 1
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        err = capsys.readouterr().err
        assert err.startswith("qwcover: error: cannot write report to stdout: 'ascii' codec")
        assert err.count("\n") == 1

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
            lambda g, heuristic, **_: ((1 << g.n) - 1,),
        )
        # The run path's only clique check is the word check.
        with pytest.raises(InvalidCoverError, match="qubit 2 would need both Z and X"):
            main(["run", "--input", str(demo_file), "--algorithm", algorithm])

    # The demo has terms 0..6; its minimum cover is 0b0001111, 0b1110000.
    @pytest.mark.parametrize("cover", [
        (frozenset({0, 1, 2, 3}), 0b1110000),
        (True, 0b0001110, 0b1110000),
        (0b0001111, 0, 0b1110000),
        (0b0001111, -0b10000),
        (0b0001111, 0b1110000 | 1 << 9),
        (0b0001111, 0b1111000),
        (0b0001111, 0b0110000),
    ], ids=["not-an-int", "bool", "empty", "negative", "out-of-range", "overlap", "uncovered"])
    def test_malformed_cover_rejected_as_validate_cover_rejects_it(
        self, demo_file, demo_graph, monkeypatch, capsys, cover
    ):
        with pytest.raises(InvalidCoverError) as expected:
            validate_cover(demo_graph, cover)
        monkeypatch.setattr(qwcover.cli, "solve_mcc", lambda g, heuristic, **_: cover)
        with pytest.raises(InvalidCoverError) as raised:
            main(["run", "--input", str(demo_file), "--algorithm", "all"])
        assert str(raised.value) == str(expected.value)
        assert capsys.readouterr().out == ""


class TestForkedDb:
    """``run``/``compare --algorithm all`` on a graph of at least
    ``FORK_DB_MIN_TERMS`` terms solve ``db`` in a forked child."""

    LARGE = ["bk-8.ham", "jw-8.ham", "random-150.ham", "random-300.ham"]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids that called ``os.fork``, with two usable CPUs, which
        forking needs, whatever the host has."""
        calls = []
        fork = os.fork

        def counting():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.chdir(GOLDEN)  # the reports embed the bare file name
        return calls

    def run_golden(self, capsys, name, fmt="json", *extra):
        code, out, _ = run_cli(
            capsys, "run", "--input", name, "--algorithm", "all", "--format", fmt, *extra,
        )
        assert code == 0
        return out

    def test_large_golden_inputs_reach_the_size_limit(self):
        sizes = {name: len((GOLDEN / name).read_text().splitlines()) - 1 for name in GOLDEN_INPUTS}
        large = sorted(name for name, n in sizes.items() if n >= qwcover.cli.FORK_DB_MIN_TERMS)
        assert large == self.LARGE

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "one-cpu"])
    def test_golden_reports_either_way(self, forks, monkeypatch, capsys, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        for name in self.LARGE:
            for fmt, suffix in (("json", ".json"), ("text", ".txt")):
                assert self.run_golden(capsys, name, fmt) == (GOLDEN / name).with_suffix(suffix).read_text()
        inputs = [arg for name in GOLDEN_INPUTS for arg in ("--input", name)]
        for fmt, suffix in (("json", ".json"), ("text", ".txt")):
            code, out, _ = run_cli(capsys, "compare", "--algorithm", "all", *inputs, "--format", fmt)
            assert code == 0
            assert out == (GOLDEN / "compare").with_suffix(suffix).read_text()
        # One child per large input and report, none for the smaller inputs.
        assert len(forks) == (4 * len(self.LARGE) if len(cpus) > 1 else 0)

    def test_no_child_below_the_limit_or_for_one_heuristic(self, forks, capsys):
        self.run_golden(capsys, "random-60.ham")
        for heuristic in ALL_NAMES:
            run_cli(capsys, "run", "--input", "jw-8.ham", "--algorithm", heuristic)
        assert forks == []

    def test_no_child_from_a_multi_threaded_process(self, forks, capsys):
        # Python 3.12+ warns on forking with threads, an error here.
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            out = self.run_golden(capsys, "jw-8.ham")
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert out == (GOLDEN / "jw-8.json").read_text()
        assert forks == []

    def test_failed_fork_solves_db_in_process(self, forks, monkeypatch, capsys):
        def refuse():
            forks.append(os.getpid())
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", refuse)
        assert self.run_golden(capsys, "bk-8.ham") == (GOLDEN / "bk-8.json").read_text()
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("failure", ["raises", "garbage"])
    def test_child_without_a_cover_leaves_db_to_the_parent(
        self, forks, monkeypatch, capsys, failure
    ):
        parent = os.getpid()
        solved_here = []
        solve = qwcover.cli.solve_mcc

        def parent_only(g, heuristic, **kwargs):
            if os.getpid() == parent:
                solved_here.append(heuristic)
            elif failure == "raises":
                raise RuntimeError("the child fails")
            return solve(g, heuristic, **kwargs)

        monkeypatch.setattr(qwcover.cli, "solve_mcc", parent_only)
        if failure == "garbage":
            # The child writes bytes that do not unmarshal.
            monkeypatch.setattr(qwcover.cli, "marshal", SimpleNamespace(
                dumps=lambda payload: b"\xff not marshal data",
                loads=qwcover.cli.marshal.loads,
            ))
        for fmt, suffix in (("json", ".json"), ("text", ".txt")):
            solved_here.clear()
            assert self.run_golden(capsys, "jw-8.ham", fmt) == (GOLDEN / "jw-8").with_suffix(suffix).read_text()
            assert solved_here == list(Heuristic)[:5] + list(Heuristic)[6:] + [Heuristic.DB]
        assert forks == [parent, parent]

    @pytest.mark.parametrize("error", [InvalidCoverError, KeyboardInterrupt])
    def test_error_while_the_child_runs_propagates_and_reaps_it(
        self, forks, monkeypatch, capsys, error
    ):
        solve = qwcover.cli.solve_mcc

        def failing_cosine(g, heuristic, **kwargs):
            if heuristic is Heuristic.COSINE:
                if error is KeyboardInterrupt:
                    raise KeyboardInterrupt
                return ((1 << g.n) - 1,)  # one group of every term: not QWC
            return solve(g, heuristic, **kwargs)

        monkeypatch.setattr(qwcover.cli, "solve_mcc", failing_cosine)
        argv = ["run", "--input", "jw-8.ham", "--algorithm", "all"]
        with pytest.raises(error) as forked:
            main(argv)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.raises(error) as in_process:
            main(argv)
        assert len(forks) == 1
        assert str(forked.value) == str(in_process.value)
        assert capsys.readouterr().out == ""

    def test_timings_report_the_child_db_time(self, forks, capsys):
        report = json.loads(self.run_golden(capsys, "jw-8.ham", "json", "--timings"))
        (db,) = [r for r in report["results"] if r["heuristic"] == "db"]
        assert db["wall_ms"] > 0
        assert len(forks) == 1


def test_cli_import_leaves_out_numpy_and_process_modules():
    # A heavier import would show in every command's start-up time.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    heavy = ["multiprocessing", "concurrent.futures", "subprocess", "numpy"]
    completed = subprocess.run(
        [sys.executable, "-c", f"import sys, qwcover.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert completed.stdout == "[]\n"


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

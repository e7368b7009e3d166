"""Byte-for-byte report gate over the committed inputs in ``tests/golden``.

A change that keeps every cover must leave every report unchanged.  To
redefine a tie-break on purpose, regenerate the reports with
``python3 tests/golden/regenerate.py`` and record the change.
"""

import re
from pathlib import Path

import pytest

from qwcover import Heuristic
from qwcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def test_corpus_present():
    assert len(INPUTS) == 6


def _report(name, fmt, monkeypatch, capsys, algorithm="all"):
    # The report embeds the input path, so run with the bare file name.
    monkeypatch.chdir(GOLDEN)
    code = main(["run", "--input", name, "--algorithm", algorithm, "--format", fmt])
    assert code == 0
    return capsys.readouterr().out


def _text_blocks(report):
    """A text run report's header lines, and each heuristic's block of
    lines (from its ``== NAME:`` line) by name."""
    assert report.endswith("\n")
    head, *blocks = re.split(r"\n(?=== )", report[:-1])
    return head, {re.match(r"== (\w+):", block).group(1): block for block in blocks}


def _records(report):
    """A JSON run report's text before its results, and each heuristic's
    record text by name."""
    head, results = report.split('\n  "results": [\n', 1)
    assert results.endswith("\n  ]\n}\n")
    records = re.split(r',\n(?=    \{\n      "heuristic": ")', results[:-len("\n  ]\n}\n")])
    return head, {re.search(r'"heuristic": "(\w+)"', record).group(1): record for record in records}


@pytest.mark.parametrize("name", INPUTS)
def test_run_all_report_unchanged(name, monkeypatch, capsys):
    expected = (GOLDEN / name).with_suffix(".json").read_text()
    assert _report(name, "json", monkeypatch, capsys) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_run_all_text_report_unchanged(name, monkeypatch, capsys):
    expected = (GOLDEN / name).with_suffix(".txt").read_text()
    assert _report(name, "text", monkeypatch, capsys) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_single_heuristic_records_match_all_report(name, monkeypatch, capsys):
    # Alone, a heuristic shares no group with another; its record must be
    # the bytes it has in the report where groups are shared.
    head, expected = _records((GOLDEN / name).with_suffix(".json").read_text())
    assert list(expected) == [h.value for h in Heuristic]
    for heuristic in Heuristic:
        report = _report(name, "json", monkeypatch, capsys, heuristic.value)
        assert _records(report) == (head, {heuristic.value: expected[heuristic.value]})


@pytest.mark.parametrize("name", INPUTS)
def test_single_heuristic_text_blocks_match_all_report(name, monkeypatch, capsys):
    # The text analogue: each group's lines are rendered once per report,
    # whichever heuristic reports the group first.
    head, expected = _text_blocks((GOLDEN / name).with_suffix(".txt").read_text())
    assert list(expected) == [h.value for h in Heuristic]
    for heuristic in Heuristic:
        report = _report(name, "text", monkeypatch, capsys, heuristic.value)
        assert _text_blocks(report) == (head, {heuristic.value: expected[heuristic.value]})


@pytest.mark.parametrize("fmt, suffix", [("json", ".json"), ("text", ".txt")])
def test_compare_report_unchanged(fmt, suffix, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    inputs = [arg for name in INPUTS for arg in ("--input", name)]
    assert main(["compare", "--algorithm", "all", *inputs, "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / "compare").with_suffix(suffix).read_text()

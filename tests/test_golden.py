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

"""Byte-for-byte report gate over the committed inputs in ``tests/golden``.

A change that keeps every cover must leave every report unchanged.  To
redefine a tie-break on purpose, regenerate the reports with
``python3 tests/golden/regenerate.py`` and record the change.
"""

from pathlib import Path

import pytest

from qwcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def test_corpus_present():
    assert len(INPUTS) == 6


@pytest.mark.parametrize("name", INPUTS)
def test_run_all_report_unchanged(name, monkeypatch, capsys):
    # The report embeds the input path, so run with the bare file name.
    monkeypatch.chdir(GOLDEN)
    code = main(["run", "--input", name, "--algorithm", "all", "--format", "json"])
    assert code == 0
    expected = (GOLDEN / name).with_suffix(".json").read_text()
    assert capsys.readouterr().out == expected

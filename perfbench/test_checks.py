"""The report checks accept the program's reports and catch broken ones.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
qwcover_cli = pytest.importorskip("qwcover.cli")
qwcover_pauli = pytest.importorskip("qwcover.pauli")


def _report(request: corpus.Request, tmp_path: Path) -> tuple[str, str]:
    path = tmp_path / "input.ham"
    path.write_text(request.input.text)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert qwcover_cli.main(request.argv(str(path))) == 0
    return buffer.getvalue(), str(path)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_inputs_parse_to_the_generated_words_in_order(workload):
    for request in corpus.build(workload, 7)[:20]:
        h = qwcover_pauli.parse_hamiltonian(request.input.text)
        assert h.n_qubits == request.input.n_qubits
        assert [(w.x_mask, w.z_mask) for w in h.words()] == list(request.input.words)


def test_same_seed_same_inputs():
    first = [r.input.text for r in corpus.build("many-small", 3)]
    assert first == [r.input.text for r in corpus.build("many-small", 3)]
    assert first != [r.input.text for r in corpus.build("many-small", 4)]


def _mutations(report: dict):
    """Yield (description, broken copy) pairs of a correct report."""
    record = report["results"][0]
    groups = record["groups"]
    big = max(range(len(groups)), key=lambda i: len(groups[i]["terms"]))
    other = next(i for i in range(len(groups)) if i != big)

    broken = json.loads(json.dumps(report))
    moved = broken["results"][0]["groups"][other]["terms"].pop()
    broken["results"][0]["groups"][big]["terms"].append(moved)
    yield "term moved to another group", broken

    broken = json.loads(json.dumps(report))
    basis = broken["results"][0]["groups"][big]["basis"]
    qubit = next(iter(basis))
    basis[qubit] = {"X": "Y", "Y": "Z", "Z": "X"}[basis[qubit]]
    yield "basis axis changed", broken

    broken = json.loads(json.dumps(report))
    broken["results"][0]["groups"][big]["terms"].pop()
    yield "term dropped", broken

    broken = json.loads(json.dumps(report))
    broken["results"][0]["n_groups"] += 1
    yield "group count changed", broken

    broken = json.loads(json.dumps(report))
    broken["results"][0] = {"heuristic": record["heuristic"], "error": "budget exceeded"}
    yield "solver error", broken


def test_checks_accept_real_reports_and_reject_broken_ones(tmp_path):
    request = corpus.build("all-mid", 1)[0]
    text, path = _report(request, tmp_path)
    checked = checks.check_report(text, request, path)
    assert [h for h, _, _ in checked] == list(corpus.HEURISTICS)
    assert all(problem is None and groups > 0 for _, problem, groups in checked)
    report = json.loads(text)
    for description, broken in _mutations(report):
        verdict = checks.check_report(json.dumps(broken), request, path)
        assert verdict[0][1] is not None, description
        assert all(problem is None for _, problem, _ in verdict[1:]), description
    assert all(p is not None for _, p, _ in checks.check_report(text[:-5], request, path))


def test_qwc_matches_the_program():
    request = corpus.build("many-small", 2)[0]
    words = request.input.words
    parsed = qwcover_pauli.parse_hamiltonian(request.input.text).words()
    for i in range(len(words)):
        for j in range(len(words)):
            assert checks.qwc(words[i], words[j]) == qwcover_pauli.qubit_wise_commute(parsed[i], parsed[j])

"""End-to-end acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance and
(where one is stated) its runtime budget; a one-line PASS/FAIL verdict is
printed per criterion (run with ``pytest -s`` to see them live).
"""

import filecmp
import itertools
import json
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import (
    DEMO_MINIMUM_GROUPS,
    DEMO_TEXT,
    DEMO_THREE_GROUP_COVER,
    external_data_dir,
    removal_trap_graph,
)
from qwcover import (
    Heuristic,
    PauliAxis,
    PauliWord,
    basis_of_group,
    build_qwc_graph,
    clique_removal_cover,
    compute_stats,
    parse_hamiltonian,
    qubit_wise_commute,
    sequential_coloring,
    solve_mcc,
    validate_cover,
)
from qwcover.cli import main as cli_main


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_worked_example_exactness(demo_hamiltonian, demo_graph):
    """All nine heuristics and the exact oracle agree on the 7-term demo."""
    started = time.perf_counter()
    outcomes = {}
    for heuristic in Heuristic:
        cover = solve_mcc(demo_graph, heuristic)
        validate_cover(demo_graph, cover)
        oracles.assert_qwc_partition(demo_hamiltonian, cover)
        outcomes[heuristic.value] = set(cover)
    oracle = oracles.exact_mcc(demo_graph)
    elapsed = time.perf_counter() - started
    ok = (
        all(groups == DEMO_MINIMUM_GROUPS for groups in outcomes.values())
        and len(oracle) == 2
        and elapsed < 1.0
    )
    _verdict(
        "criterion-1 worked-example exactness", ok,
        f"9 heuristics -> 2 groups, oracle=2, {elapsed:.3f}s",
    )


def test_criterion_2_non_minimal_cover_is_legal(demo_hamiltonian, demo_graph):
    """A 3-group cover of the same Hamiltonian validates but is larger."""
    cover = DEMO_THREE_GROUP_COVER
    validate_cover(demo_graph, cover)
    oracles.assert_qwc_partition(demo_hamiltonian, cover)
    optimum = len(oracles.exact_mcc(demo_graph))
    _verdict(
        "criterion-2 non-minimal cover exists",
        len(cover) == 3 and len(cover) > optimum,
        f"valid 3-group cover vs optimum {optimum}",
    )


def test_criterion_3_exact_removal_can_exceed_minimum():
    """A graph where removing the true maximum clique yields a worse cover."""
    g = removal_trap_graph()
    removal = clique_removal_cover(g, Heuristic.BKT)
    validate_cover(g, removal)
    optimum = oracles.exact_mcc(g)
    validate_cover(g, optimum)
    _verdict(
        "criterion-3 removal strictly beats-able",
        len(removal) > len(optimum),
        f"removal={len(removal)} > minimum={len(optimum)}",
    )


def test_criterion_4_oracle_soundness_sweep():
    """Heuristics never beat the oracle; covers and bases always valid."""
    started = time.perf_counter()
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    rng = random.Random(1)
    graphs = 0
    for trial in range(60):
        for density in densities:
            n = rng.randint(2, 10)
            g = oracles.random_gnp(n, density, trial * 100 + int(density * 10))
            optimum = len(oracles.exact_mcc(g))
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                validate_cover(g, cover)
                assert len(cover) >= optimum, (heuristic, trial, density)
            graphs += 1
    hamiltonians = 0
    for trial in range(40):
        h = oracles.random_hamiltonian(rng, rng.randint(2, 10), rng.randint(2, 6))
        g = build_qwc_graph(h)
        optimum = len(oracles.exact_mcc(g))
        for heuristic in Heuristic:
            cover = solve_mcc(g, heuristic)
            validate_cover(g, cover)
            oracles.assert_qwc_partition(h, cover)
            assert len(cover) >= optimum
            for group in cover:
                basis_of_group(h, group)
        hamiltonians += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "criterion-4 oracle soundness sweep",
        graphs >= 500 and elapsed < 60.0,
        f"{graphs} graphs + {hamiltonians} Hamiltonians in {elapsed:.1f}s",
    )


def test_criterion_5_no_ordering_beats_chromatic_number():
    """Sequential coloring over ALL vertex orderings never needs fewer
    colors than the exact chromatic number (and some ordering reaches it)."""
    started = time.perf_counter()
    rng = random.Random(2)
    cases = [(n, rng.uniform(0.2, 0.8), seed) for seed, n in
             enumerate([4, 5, 5, 6, 6, 7, 7, 8, 8])]
    for n, density, seed in cases:
        g = oracles.random_gnp(n, density, 7000 + seed)
        chi = oracles.chromatic_number_dp(g)
        best = min(
            len(sequential_coloring(g, order))
            for order in itertools.permutations(range(n))
        )
        assert best >= chi, (n, density, seed)
        assert best == chi  # some ordering always achieves the optimum
    elapsed = time.perf_counter() - started
    _verdict(
        "criterion-5 ordering exhaustion", elapsed < 120.0,
        f"{len(cases)} graphs, all orderings, {elapsed:.1f}s",
    )


def test_criterion_6_reference_water_hamiltonian():
    """Optional soft reproduction on an externally supplied 1086-term file."""
    path = external_data_dir() / "h2o_sto3g_bk.ham"
    if not path.is_file():
        print("[acceptance] criterion-6 reference Hamiltonian: SKIP (file absent)")
        pytest.skip(f"external data file {path} not present")
    h = parse_hamiltonian(path.read_text())
    assert h.n_terms == 1086
    cover = solve_mcc(build_qwc_graph(h), Heuristic.LF)
    expected = 313
    ok = abs(len(cover) - expected) <= 0.10 * expected
    _verdict(
        "criterion-6 reference water Hamiltonian", ok,
        f"LF groups={len(cover)}, reference {expected} +/-10%",
    )


def test_criterion_7_qwc_implies_commuting():
    """QWC pairs always commute; the dense-matrix oracle agrees exactly."""
    rng = random.Random(3)
    for _ in range(10_000):
        a = oracles.random_word(rng, 8)
        b = oracles.random_word(rng, 8)
        if qubit_wise_commute(a, b):
            assert oracles.fully_commute(a, b)
    # exhaustive agreement with the matrix commutator on 4 qubits
    axes = [PauliAxis.I, PauliAxis.X, PauliAxis.Y, PauliAxis.Z]
    words = [
        PauliWord({q: a for q, a in enumerate(combo) if a is not PauliAxis.I})
        for combo in itertools.product(axes, repeat=4)
    ]
    matrices = np.stack([oracles.word_matrix(w, 4) for w in words])
    mismatches = 0
    for i in range(len(words)):
        products = matrices[i][None] @ matrices
        reversed_products = matrices @ matrices[i][None]
        dense = (
            np.abs(products - reversed_products).reshape(len(words), -1).max(axis=1)
            < 1e-12
        )
        ours = np.fromiter(
            (oracles.fully_commute(words[i], w) for w in words), bool, len(words)
        )
        mismatches += int((dense != ours).sum())
    _verdict(
        "criterion-7 QWC implies commuting",
        mismatches == 0,
        f"10000 random pairs + {len(words) * len(words)} matrix checks",
    )


def test_criterion_8_large_hamiltonian_performance():
    """Graph build plus LF on 5000 terms inside time and memory budgets."""
    rng = random.Random(20240809)
    h = oracles.random_hamiltonian(rng, 5000, 16, max_weight=4)
    started = time.perf_counter()
    g = build_qwc_graph(h)
    complement = g.complement()
    cover = solve_mcc(g, Heuristic.LF)
    elapsed = time.perf_counter() - started
    stats = compute_stats(cover)
    adjacency_bytes = sum(sys.getsizeof(row) for row in g.rows) + sum(
        sys.getsizeof(row) for row in complement.rows
    )
    ok = elapsed < 30.0 and adjacency_bytes < 25_000_000 and stats.total_terms == 5000
    _verdict(
        "criterion-8 performance sanity", ok,
        f"build+LF {elapsed:.2f}s, adjacency {adjacency_bytes / 1e6:.1f} MB, "
        f"{stats.n_groups} groups",
    )


def test_criterion_9_deterministic_cli_reports(tmp_path):
    """Two consecutive full runs produce byte-identical JSON reports."""
    source = tmp_path / "demo.ham"
    source.write_text(DEMO_TEXT)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for target in (first, second):
        code = cli_main([
            "run", "--input", str(source), "--algorithm", "all",
            "--format", "json", "--output", str(target),
        ])
        assert code == 0
    identical = filecmp.cmp(first, second, shallow=False)
    _verdict(
        "criterion-9 deterministic reports", identical,
        f"{first.stat().st_size} bytes each",
    )


@pytest.mark.parametrize("name", ["jw-8", "bk-8"])
def test_criterion_10_molecular_reduction_of_three(name):
    """The paper reports about a threefold cut in measurement groups on
    molecular Hamiltonians: the best cover of each golden molecule (the
    report ``test_golden`` checks against the CLI) has at most terms / 3
    groups."""
    report = json.loads((Path(__file__).resolve().parent / "golden" / f"{name}.json").read_text())
    best = min(record["n_groups"] for record in report["results"] if "n_groups" in record)
    terms = report["total_terms"]
    _verdict(
        f"criterion-10 {name} reduction", 3 * best <= terms,
        f"{terms} terms / {best} groups = {terms / best:.2f}",
    )

import itertools
import random

import pytest

import oracles
from qwcover import (
    BasisConflictError,
    CapacityError,
    CliqueCover,
    Heuristic,
    InvalidCoverError,
    PauliAxis,
    TermGraph,
    basis_of_group,
    build_qwc_graph,
    compute_stats,
    exact_mcc,
    minimum_coloring,
    parse_hamiltonian,
    solve_mcc,
    validate_cover,
    validate_cover_words,
)
from qwcover.exact import EXACT_MCC_MAX_VERTICES


def complete_graph(n):
    return TermGraph.from_edges(n, itertools.combinations(range(n), 2))


class TestValidateCover:
    def test_demo_minimum_cover_valid(self, demo_hamiltonian, demo_graph):
        cover = CliqueCover((frozenset({0, 1, 2, 3}), frozenset({4, 5, 6})))
        validate_cover(demo_graph, cover)
        validate_cover_words(demo_hamiltonian, cover)

    def test_three_group_cover_valid(self, demo_hamiltonian, demo_graph):
        from conftest import DEMO_THREE_GROUP_COVER

        cover = CliqueCover(DEMO_THREE_GROUP_COVER)
        validate_cover(demo_graph, cover)
        validate_cover_words(demo_hamiltonian, cover)
        assert cover.n_groups == 3

    def test_overlap_rejected(self, demo_graph):
        cover = CliqueCover((frozenset({0, 1, 2, 3}), frozenset({3, 4, 5, 6})))
        with pytest.raises(InvalidCoverError, match="more than one group"):
            validate_cover(demo_graph, cover)

    def test_missing_vertex_rejected(self, demo_graph):
        cover = CliqueCover((frozenset({0, 1, 2, 3}), frozenset({4, 5})))
        with pytest.raises(InvalidCoverError, match="not covered"):
            validate_cover(demo_graph, cover)

    def test_non_clique_rejected(self, demo_graph):
        cover = CliqueCover((frozenset({0, 1, 2, 3, 4}), frozenset({5, 6})))
        with pytest.raises(InvalidCoverError, match="not a clique"):
            validate_cover(demo_graph, cover)

    def test_word_level_check_catches_non_qwc_group(self, demo_hamiltonian):
        cover = CliqueCover((frozenset({0, 1, 2, 3, 5}), frozenset({4, 6})))
        with pytest.raises(InvalidCoverError, match="qubit-wise"):
            validate_cover_words(demo_hamiltonian, cover)


class TestBasisOfGroup:
    def test_nested_z_group(self, demo_hamiltonian):
        basis = basis_of_group(demo_hamiltonian, {0, 1, 2, 3})
        assert basis.assignment == {q: PauliAxis.Z for q in range(4)}

    def test_x_tail_group(self, demo_hamiltonian):
        basis = basis_of_group(demo_hamiltonian, {4, 5, 6})
        assert basis.assignment == {
            0: PauliAxis.Y, 1: PauliAxis.Y, 2: PauliAxis.X, 3: PauliAxis.X,
        }

    def test_identity_singleton_empty_assignment(self):
        h = parse_hamiltonian("1.0 []")
        assert basis_of_group(h, {0}).assignment == {}

    def test_untouched_qubits_unassigned(self, demo_hamiltonian):
        basis = basis_of_group(demo_hamiltonian, {4})
        assert basis.axis_on(0) is None
        assert basis.axis_on(2) is PauliAxis.X

    def test_conflict_raises(self, demo_hamiltonian):
        with pytest.raises(BasisConflictError, match="qubit 0"):
            basis_of_group(demo_hamiltonian, {0, 5})  # Z0 vs Y0

    def test_every_heuristic_group_is_measurable(self):
        rng = random.Random(123)
        for trial in range(15):
            h = oracles.random_hamiltonian(rng, rng.randint(1, 12), 5)
            g = build_qwc_graph(h)
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                for group in cover.groups:
                    basis_of_group(h, group)  # must not raise


class TestStats:
    def test_demo_two_group_stats(self, demo_graph):
        cover = solve_mcc(demo_graph, Heuristic.LF)
        stats = compute_stats(cover)
        assert stats.n_groups == 2
        assert stats.max_size == 4
        # population standard deviation of sizes {4, 3}
        assert stats.size_std == pytest.approx(0.5)
        assert stats.total_terms == 7

    def test_singletons(self):
        cover = CliqueCover(tuple(frozenset({v}) for v in range(5)))
        stats = compute_stats(cover)
        assert stats.max_size == 1
        assert stats.size_std == 0.0
        assert stats.total_terms == 5

    def test_single_group(self):
        cover = CliqueCover((frozenset(range(8)),))
        stats = compute_stats(cover)
        assert stats.n_groups == 1
        assert stats.size_std == 0.0

    def test_empty_cover(self):
        stats = compute_stats(CliqueCover(()))
        assert stats == compute_stats(CliqueCover(()))
        assert stats.n_groups == 0


class TestExactMcc:
    def test_demo_graph_minimum_two(self, demo_graph):
        cover = exact_mcc(demo_graph)
        assert cover.n_groups == 2
        validate_cover(demo_graph, cover)

    def test_complete_graph_one_group(self):
        assert exact_mcc(complete_graph(6)).n_groups == 1

    def test_edgeless_graph_n_groups(self):
        assert exact_mcc(TermGraph.from_edges(5, [])).n_groups == 5

    def test_vertex_cap(self):
        g = TermGraph.from_edges(EXACT_MCC_MAX_VERTICES + 1, [])
        with pytest.raises(CapacityError, match="capped"):
            exact_mcc(g)

    def test_matches_subset_dp_oracle(self):
        rng = random.Random(6)
        for trial in range(40):
            n = rng.randint(1, 8)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 2000 + trial)
            cover = exact_mcc(g)
            validate_cover(g, cover)
            assert cover.n_groups == oracles.min_clique_cover_size(g), trial

    def test_equals_chromatic_number_of_complement(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(1, 8)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.8), 2500 + trial)
            assert exact_mcc(g).n_groups == oracles.chromatic_number_dp(g.complement())

    def test_minimum_coloring_proper_and_optimal(self):
        rng = random.Random(8)
        for trial in range(30):
            n = rng.randint(1, 9)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 3000 + trial)
            coloring = minimum_coloring(g)
            assert oracles.is_proper_coloring(g, coloring.color_of)
            assert coloring.n_colors == oracles.chromatic_number_dp(g), trial


class TestConcurrentSolvers:
    def test_heuristics_share_one_graph_across_threads(self, demo_graph):
        # solvers are pure functions of immutable graphs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {
                heuristic: pool.submit(solve_mcc, demo_graph, heuristic)
                for heuristic in Heuristic
            }
        for heuristic, future in futures.items():
            assert future.result() == solve_mcc(demo_graph, heuristic), heuristic


class TestReconstruction:
    def test_groups_reproduce_all_term_indices(self):
        rng = random.Random(9)
        for trial in range(10):
            h = oracles.random_hamiltonian(rng, rng.randint(1, 14), 6)
            g = build_qwc_graph(h)
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                indices = sorted(v for group in cover.groups for v in group)
                assert indices == list(range(h.n_terms)), heuristic

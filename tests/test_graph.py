import itertools
import random

import pytest

import oracles
from qwcover import (
    CapacityError,
    Hamiltonian,
    PauliWord,
    TermGraph,
    build_qwc_graph,
    fully_commute,
    parse_hamiltonian,
    qubit_wise_commute,
)
import qwcover.graph

W = PauliWord.from_string

DEMO_EDGES = {
    # the nested-Z 4-clique
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    # the X-tail 3-clique
    (4, 5), (4, 6), (5, 6),
    # cross edges: Z0 and Z0Z1 have disjoint support with X2X3
    (0, 4), (1, 4),
}


class TestBuild:
    def test_demo_graph_structure(self, demo_graph):
        assert demo_graph.n == 7
        assert set(demo_graph.edges()) == DEMO_EDGES
        demo_graph.check_consistency()

    def test_edges_match_pairwise_commutation(self, demo_hamiltonian, demo_graph):
        words = demo_hamiltonian.words()
        for i, j in itertools.combinations(range(len(words)), 2):
            assert demo_graph.has_edge(i, j) == qubit_wise_commute(words[i], words[j])

    def test_every_edge_also_fully_commutes(self, demo_hamiltonian, demo_graph):
        words = demo_hamiltonian.words()
        for i, j in demo_graph.edges():
            assert fully_commute(words[i], words[j])

    def test_single_term(self):
        g = build_qwc_graph(parse_hamiltonian("1.0 [Z0]"))
        assert g.n == 1
        assert g.edge_count == 0

    def test_pairwise_non_qwc_words(self):
        g = build_qwc_graph(parse_hamiltonian("1.0 [X0]\n1.0 [Y0]\n1.0 [Z0]"))
        assert g.n == 3
        assert g.edge_count == 0

    def test_empty_hamiltonian(self):
        g = build_qwc_graph(Hamiltonian((), 0))
        assert g.n == 0

    def test_identity_term_adjacent_to_all(self):
        g = build_qwc_graph(parse_hamiltonian("1.0 []\n1.0 [X0]\n1.0 [Z0]"))
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_many_qubits_multilane(self):
        # words past qubit 63, beyond one machine word, still compare correctly
        h = parse_hamiltonian("1.0 [Z0 Z100]\n1.0 [Z100]\n1.0 [X100]")
        g = build_qwc_graph(h)
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(qwcover.graph, "MAX_GRAPH_VERTICES", 4)
        h = parse_hamiltonian("\n".join(f"1.0 [Z{i}]" for i in range(5)))
        with pytest.raises(CapacityError, match="cap"):
            build_qwc_graph(h)

    def test_random_hamiltonian_edges_match_definition(self):
        rng = random.Random(7)
        h = oracles.random_hamiltonian(rng, 25, 5)
        g = build_qwc_graph(h)
        g.check_consistency()
        words = h.words()
        for i, j in itertools.combinations(range(25), 2):
            assert g.has_edge(i, j) == qubit_wise_commute(words[i], words[j])

    @pytest.mark.parametrize("n_qubits", [1, 2, 7, 63, 64, 65, 100, 128, 130])
    def test_matches_pairwise_oracle_across_qubit_counts(self, n_qubits):
        # Light words keep QWC pairs common on wide registers; the identity
        # word is adjacent to everything.
        rng = random.Random(n_qubits)
        raw = [PauliWord()]
        raw += [oracles.random_word(rng, n_qubits, max_weight=3) for _ in range(40)]
        raw += [oracles.random_word(rng, n_qubits) for _ in range(20)]
        h = Hamiltonian.from_terms([(1.0, word) for word in raw], n_qubits=n_qubits)
        g = build_qwc_graph(h)
        g.check_consistency()
        words = h.words()
        assert words[0].is_identity
        for i, j in itertools.combinations(range(len(words)), 2):
            assert g.has_edge(i, j) == qubit_wise_commute(words[i], words[j]), (i, j)
        assert 0 < g.edge_count < len(words) * (len(words) - 1) // 2


class TestTermGraph:
    def test_from_edges_and_degrees(self):
        g = TermGraph.from_edges(4, [(0, 1), (1, 2)])
        assert g.degrees == (1, 2, 1, 0)
        assert g.edge_count == 2
        g.check_consistency()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TermGraph.from_edges(2, [(1, 1)])

    def test_degree_cache_matches_rows(self):
        for seed in range(5):
            g = oracles.random_gnp(12, 0.4, seed)
            assert g.degrees == tuple(row.bit_count() for row in g.rows)


class TestComplement:
    def test_complement_of_clique_is_edgeless(self):
        clique = TermGraph.from_edges(4, itertools.combinations(range(4), 2))
        assert clique.complement().edge_count == 0

    def test_involution(self):
        for seed, n in [(0, 5), (1, 30), (2, 200)]:
            g = oracles.random_gnp(n, 0.35, seed)
            assert g.complement().complement() == g

    def test_pair_partition(self):
        for seed in range(4):
            g = oracles.random_gnp(9, 0.5, seed)
            comp = g.complement()
            all_pairs = set(itertools.combinations(range(9), 2))
            assert set(g.edges()) | set(comp.edges()) == all_pairs
            assert not set(g.edges()) & set(comp.edges())

    def test_built_once(self):
        g = oracles.random_gnp(10, 0.5, 3)
        assert g.complement() is g.complement()

    def test_demo_complement_is_two_colorable(self, demo_graph):
        assert oracles.chromatic_number_dp(demo_graph.complement()) == 2


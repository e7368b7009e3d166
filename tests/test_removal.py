import itertools
import random
import sys

import pytest

import oracles
from conftest import DEMO_MINIMUM_GROUPS, removal_trap_graph
from qwcover import (
    BudgetExceededError,
    Heuristic,
    TermGraph,
    clique_removal_cover,
    exact_mcc,
    max_clique_bkt,
    ramsey_clique,
    validate_cover,
)


def complete_graph(n):
    return TermGraph.from_edges(n, itertools.combinations(range(n), 2))


class TestMaxCliqueBkt:
    def test_complete_graph(self):
        assert max_clique_bkt(complete_graph(5)) == frozenset(range(5))

    def test_edgeless_graph_lowest_index(self):
        assert max_clique_bkt(TermGraph.from_edges(4, [])) == frozenset({0})

    def test_demo_graph(self, demo_graph):
        assert max_clique_bkt(demo_graph) == frozenset({0, 1, 2, 3})

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            max_clique_bkt(TermGraph([]))

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for trial in range(40):
            n = rng.randint(1, 12)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.9), 300 + trial)
            found = max_clique_bkt(g)
            assert oracles.is_clique(g, found)
            assert len(found) == len(oracles.brute_force_max_clique(g)), trial

    def test_budget_exceeded(self):
        g = oracles.random_gnp(30, 0.7, 8)
        with pytest.raises(BudgetExceededError, match="exceeded"):
            max_clique_bkt(g, node_budget=3)

    def test_deterministic(self):
        g = oracles.random_gnp(14, 0.6, 77)
        assert max_clique_bkt(g) == max_clique_bkt(g)

    def test_deep_search_leaves_recursion_limit_alone(self):
        # the search descends once per clique member, past the default limit
        limit = sys.getrecursionlimit()
        g = complete_graph(1100)
        for finder in (max_clique_bkt, ramsey_clique):
            assert finder(g) == frozenset(range(1100))
            assert sys.getrecursionlimit() == limit

    def test_alive_mask_outside_graph_rejected(self):
        g = complete_graph(3)
        for finder in (max_clique_bkt, ramsey_clique):
            with pytest.raises(ValueError, match="outside"):
                finder(g, alive=1 << 3)


class TestRamseyClique:
    def test_complete_graph(self):
        assert ramsey_clique(complete_graph(6)) == frozenset(range(6))

    def test_edgeless_graph(self):
        assert ramsey_clique(TermGraph.from_edges(5, [])) == frozenset({0})

    def test_empty_graph(self):
        assert ramsey_clique(TermGraph([])) == frozenset()

    def test_always_a_clique_and_never_bigger_than_maximum(self):
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(1, 10)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 600 + trial)
            found = ramsey_clique(g)
            assert oracles.is_clique(g, found)
            assert len(found) <= len(max_clique_bkt(g))

    def test_result_is_maximal(self):
        rng = random.Random(4)
        for trial in range(30):
            n = rng.randint(1, 11)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.8), 900 + trial)
            found = ramsey_clique(g)
            for v in set(range(n)) - found:
                assert not found <= set(g.neighbors(v)) | {v}, (trial, v)

    def test_matches_recursive_definition(self):
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(0, 40)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            alive = rng.getrandbits(n) if n else 0
            expected = oracles.recursive_ramsey_clique(g, alive)
            assert ramsey_clique(g, alive=alive) == expected, trial

    def test_deep_recursion_safe(self):
        # complete graph drives the pivot chain through every vertex
        assert len(ramsey_clique(complete_graph(1100))) == 1100


class TestCliqueRemovalCover:
    def test_demo_graph_bkt(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.BKT)
        assert set(cover.groups) == DEMO_MINIMUM_GROUPS
        assert cover.provenance is Heuristic.BKT

    def test_demo_graph_ramsey(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.RAMSEY)
        assert set(cover.groups) == DEMO_MINIMUM_GROUPS

    def test_edgeless_graph_singletons(self):
        g = TermGraph.from_edges(4, [])
        cover = clique_removal_cover(g, Heuristic.BKT)
        assert cover.groups == tuple(frozenset({v}) for v in range(4))

    def test_groups_in_extraction_order(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.BKT)
        assert cover.groups[0] == frozenset({0, 1, 2, 3})  # the maximum clique

    def test_empty_graph(self):
        cover = clique_removal_cover(TermGraph([]), Heuristic.BKT)
        assert cover.groups == ()

    def test_rejects_coloring_heuristics(self, demo_graph):
        with pytest.raises(ValueError, match="clique-removal"):
            clique_removal_cover(demo_graph, Heuristic.LF)

    def test_budget_propagates(self):
        g = oracles.random_gnp(30, 0.7, 9)
        with pytest.raises(BudgetExceededError):
            clique_removal_cover(g, Heuristic.BKT, node_budget=3)

    def test_matches_relabelling_reference(self, demo_graph):
        rng = random.Random(6)
        graphs = [demo_graph, removal_trap_graph()]
        for trial in range(60):
            n = rng.randint(1, 40)
            graphs.append(oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1500 + trial))
        for number, g in enumerate(graphs):
            for finder in (Heuristic.BKT, Heuristic.RAMSEY):
                expected = oracles.relabelling_clique_removal(g, finder)
                assert clique_removal_cover(g, finder).groups == expected, (number, finder)

    def test_covers_partition_random_graphs(self):
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randint(1, 12)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            for finder in (Heuristic.BKT, Heuristic.RAMSEY):
                cover = clique_removal_cover(g, finder)
                validate_cover(g, cover)


class TestRemovalCanExceedMinimum:
    def test_trap_graph_strict_inequality(self):
        g = removal_trap_graph()
        # the unique maximum clique straddles both natural groups
        assert max_clique_bkt(g) == frozenset({0, 1, 2, 4, 5})
        removal = clique_removal_cover(g, Heuristic.BKT)
        validate_cover(g, removal)
        optimum = exact_mcc(g)
        validate_cover(g, optimum)
        assert optimum.n_groups == 2
        assert removal.n_groups == 3
        assert removal.n_groups > optimum.n_groups

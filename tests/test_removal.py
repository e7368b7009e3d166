import itertools
import random
import sys
from pathlib import Path

import pytest

import oracles
from conftest import DEMO_MINIMUM_GROUPS, removal_trap_graph
from qwcover import (
    BudgetExceededError,
    Heuristic,
    TermGraph,
    build_qwc_graph,
    clique_removal_cover,
    exact_mcc,
    max_clique_bkt,
    parse_hamiltonian,
    ramsey_clique,
    validate_cover,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def complete_graph(n):
    return TermGraph.from_edges(n, itertools.combinations(range(n), 2))


class TestMaxCliqueBkt:
    def test_complete_graph(self):
        assert max_clique_bkt(complete_graph(5)) == 0b11111

    def test_edgeless_graph_lowest_index(self):
        assert max_clique_bkt(TermGraph.from_edges(4, [])) == 0b1

    def test_demo_graph(self, demo_graph):
        assert max_clique_bkt(demo_graph) == 0b1111

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
            assert found.bit_count() == len(oracles.brute_force_max_clique(g)), trial

    def test_budget_exceeded(self):
        g = oracles.random_gnp(30, 0.7, 8)
        with pytest.raises(BudgetExceededError, match="exceeded"):
            max_clique_bkt(g, node_budget=3)

    def test_deterministic(self):
        g = oracles.random_gnp(14, 0.6, 77)
        assert max_clique_bkt(g) == max_clique_bkt(g)

    def test_matches_full_search(self):
        # the bounded first step, the degree-order proof and the walk
        # return the clique of the search run to the end
        rng = random.Random(7)
        for trial in range(300):
            n = rng.randint(1, 60)
            g = oracles.random_gnp(n, rng.choice([0.3, 0.5, 0.7, 0.8, 0.9]), 2000 + trial)
            alive = (1 << n) - 1 if trial % 2 == 0 else rng.getrandbits(n) or 1
            expected = oracles.full_search_max_clique_bkt(g, alive=alive)
            assert max_clique_bkt(g, alive=alive) == oracles.mask_of(expected), trial

    @pytest.mark.parametrize("name", GOLDEN_INPUTS)
    def test_golden_covers_match_full_search(self, name):
        g = build_qwc_graph(parse_hamiltonian((GOLDEN / name).read_text()))
        expected = []
        alive = (1 << g.n) - 1
        while alive:
            clique = oracles.mask_of(oracles.full_search_max_clique_bkt(g, alive=alive))
            expected.append(clique)
            alive &= ~clique
        assert clique_removal_cover(g, Heuristic.BKT) == tuple(expected)

    def test_deep_search_leaves_recursion_limit_alone(self):
        # the search descends once per clique member, past the default limit
        limit = sys.getrecursionlimit()
        g = complete_graph(1100)
        for finder in (max_clique_bkt, ramsey_clique):
            assert finder(g) == (1 << 1100) - 1
            assert sys.getrecursionlimit() == limit

    def test_alive_mask_outside_graph_rejected(self):
        g = complete_graph(3)
        for finder in (max_clique_bkt, ramsey_clique):
            with pytest.raises(ValueError, match="outside"):
                finder(g, alive=1 << 3)


class TestRamseyClique:
    def test_complete_graph(self):
        assert ramsey_clique(complete_graph(6)) == 0b111111

    def test_edgeless_graph(self):
        assert ramsey_clique(TermGraph.from_edges(5, [])) == 0b1

    def test_empty_graph(self):
        assert ramsey_clique(TermGraph([])) == 0

    def test_always_a_clique_and_never_bigger_than_maximum(self):
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(1, 10)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 600 + trial)
            found = ramsey_clique(g)
            assert oracles.is_clique(g, found)
            assert found.bit_count() <= max_clique_bkt(g).bit_count()

    def test_result_is_maximal(self):
        rng = random.Random(4)
        for trial in range(30):
            n = rng.randint(1, 11)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.8), 900 + trial)
            found = set(oracles.members(ramsey_clique(g)))
            for v in set(range(n)) - found:
                assert not found <= set(g.neighbors(v)) | {v}, (trial, v)

    def test_matches_recursive_definition(self):
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(0, 40)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            alive = rng.getrandbits(n) if n else 0
            expected = oracles.recursive_ramsey_clique(g, alive)
            assert ramsey_clique(g, alive=alive) == oracles.mask_of(expected), trial

    def test_deep_recursion_safe(self):
        # complete graph drives the pivot chain through every vertex
        assert ramsey_clique(complete_graph(1100)).bit_count() == 1100


class TestCliqueRemovalCover:
    def test_demo_graph_bkt(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.BKT)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_demo_graph_ramsey(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.RAMSEY)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_edgeless_graph_singletons(self):
        g = TermGraph.from_edges(4, [])
        cover = clique_removal_cover(g, Heuristic.BKT)
        assert cover == (0b0001, 0b0010, 0b0100, 0b1000)

    def test_groups_in_extraction_order(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.BKT)
        assert cover[0] == 0b1111  # the maximum clique

    def test_empty_graph(self):
        cover = clique_removal_cover(TermGraph([]), Heuristic.BKT)
        assert cover == ()

    def test_rejects_coloring_heuristics(self, demo_graph):
        with pytest.raises(ValueError, match="clique-removal"):
            clique_removal_cover(demo_graph, Heuristic.LF)

    def test_budget_propagates(self):
        g = oracles.random_gnp(30, 0.7, 9)
        with pytest.raises(BudgetExceededError):
            clique_removal_cover(g, Heuristic.BKT, node_budget=3)

    def test_budget_spares_the_proof(self):
        # the search run to the end needs a budget of 21,434 nodes here, the
        # three steps 2,360
        h = oracles.random_hamiltonian(random.Random(400), 400, 13, max_weight=4)
        g = build_qwc_graph(h)
        cover = clique_removal_cover(g, Heuristic.BKT, node_budget=10_000)
        validate_cover(g, cover)

    def test_matches_relabelling_reference(self, demo_graph):
        rng = random.Random(6)
        # in the last two, an extraction's degree-ordered proof of the clique
        # number stops at the previous extraction's size
        graphs = [
            demo_graph,
            removal_trap_graph(),
            oracles.random_gnp(61, 0.7, 331),
            oracles.random_gnp(69, 0.7, 2353),
        ]
        for trial in range(60):
            n = rng.randint(1, 40)
            graphs.append(oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1500 + trial))
        for number, g in enumerate(graphs):
            for finder in (Heuristic.BKT, Heuristic.RAMSEY):
                expected = tuple(map(oracles.mask_of, oracles.relabelling_clique_removal(g, finder)))
                assert clique_removal_cover(g, finder) == expected, (number, finder)

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
        assert max_clique_bkt(g) == 0b110111  # {0, 1, 2, 4, 5}
        removal = clique_removal_cover(g, Heuristic.BKT)
        validate_cover(g, removal)
        optimum = exact_mcc(g)
        validate_cover(g, optimum)
        assert len(optimum) == 2
        assert len(removal) == 3
        assert len(removal) > len(optimum)

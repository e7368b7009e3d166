import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEMO_MINIMUM_GROUPS, removal_trap_graph
from qwcover import (
    BudgetExceededError,
    Heuristic,
    TermGraph,
    build_qwc_graph,
    clique_removal_cover,
    max_clique_bkt,
    parse_hamiltonian,
    ramsey_clique,
    solve_mcc,
    validate_cover,
)
from qwcover.graph import _CHUNK_BYTES
from qwcover.removal import _degree_order, _ramsey_clique_mask

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def complete_graph(n):
    return oracles.graph_from_edges(n, itertools.combinations(range(n), 2))


def assert_nodes_of_earlier_search(g, alive, clique):
    """``max_clique_bkt`` finds ``clique`` within exactly the node budget
    that the earlier search over ``(vertex, color)`` pairs needed."""
    found, nodes = oracles.counted_max_clique_bkt(g, alive=alive)
    assert found == clique
    assert max_clique_bkt(g, node_budget=nodes, alive=alive) == clique
    with pytest.raises(BudgetExceededError):
        max_clique_bkt(g, node_budget=nodes - 1, alive=alive)


class TestMaxCliqueBkt:
    def test_complete_graph(self):
        assert max_clique_bkt(complete_graph(5)) == 0b11111

    def test_edgeless_graph_lowest_index(self):
        assert max_clique_bkt(oracles.graph_from_edges(4, [])) == 0b1

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

    def test_zero_budget_exceeded_at_once(self):
        with pytest.raises(BudgetExceededError, match="exceeded 0 nodes"):
            max_clique_bkt(complete_graph(1), node_budget=0)

    def test_negative_budget_rejected(self):
        # A negative budget is an error, not a search without a limit.
        for alive in (None, 0):
            with pytest.raises(ValueError, match="node budget must be at least 0, got -1"):
                max_clique_bkt(complete_graph(5), node_budget=-1, alive=alive)

    def test_non_integer_budget_rejected(self):
        # The search stops when its node count equals the budget, which a
        # fractional budget never does: it would mean no limit.
        g = build_qwc_graph(oracles.random_hamiltonian(random.Random(3), 40, 6, max_weight=3))
        with pytest.raises(BudgetExceededError):
            max_clique_bkt(g, 1)
        for budget in (1.5, 1.0):
            for alive in (None, 0):
                with pytest.raises(TypeError):
                    max_clique_bkt(g, budget, alive=alive)

    def test_bool_budget_rejected(self):
        # True == 1, but a bool is not a node count
        for budget in (True, False):
            for alive in (None, 0):
                with pytest.raises(TypeError, match="not a bool"):
                    max_clique_bkt(complete_graph(2), budget, alive=alive)

    def test_deterministic(self):
        g = oracles.random_gnp(14, 0.6, 77)
        assert max_clique_bkt(g) == max_clique_bkt(g)

    def test_matches_full_search(self):
        # the search stopped at an upper bound returns the clique of the
        # search run to the end on the degree-ordered graph
        rng = random.Random(7)
        for trial in range(300):
            n = rng.randint(1, 60)
            g = oracles.random_gnp(n, rng.choice([0.3, 0.5, 0.7, 0.8, 0.9]), 2000 + trial)
            alive = (1 << n) - 1 if trial % 2 == 0 else rng.getrandbits(n) or 1
            expected = oracles.mask_of(oracles.degree_order_max_clique_bkt(g, alive=alive))
            assert max_clique_bkt(g, alive=alive) == expected, trial
            assert_nodes_of_earlier_search(g, alive, expected)

    @pytest.mark.parametrize("name", GOLDEN_INPUTS)
    def test_golden_covers_match_full_search(self, name):
        g = build_qwc_graph(parse_hamiltonian((GOLDEN / name).read_text()))
        expected = []
        alive = (1 << g.n) - 1
        while alive:
            clique = oracles.mask_of(oracles.degree_order_max_clique_bkt(g, alive=alive))
            assert_nodes_of_earlier_search(g, alive, clique)
            expected.append(clique)
            alive &= ~clique
        assert clique_removal_cover(g, Heuristic.BKT) == tuple(expected)
        # inside a cover each search is also bounded by the previous
        # clique's size, and the budget applies to each extraction
        extractions = oracles.counted_bkt_cover(g)
        assert [clique for clique, _ in extractions] == expected
        budget = max(nodes for _, nodes in extractions)
        assert clique_removal_cover(g, Heuristic.BKT, node_budget=budget) == tuple(expected)
        with pytest.raises(BudgetExceededError):
            clique_removal_cover(g, Heuristic.BKT, node_budget=budget - 1)

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

    def test_bool_alive_mask_rejected(self):
        # True == 1, the mask of vertex 0, but a bool is not a bitmask
        g = complete_graph(3)
        for finder in (max_clique_bkt, ramsey_clique):
            for alive in (True, False):
                with pytest.raises(TypeError, match="not a bool"):
                    finder(g, alive=alive)


class TestDegreeOrder:
    def test_is_the_graph_relabelled_by_ascending_degree_ties_by_label(self):
        rng = random.Random(8)
        graphs = [
            oracles.graph_from_edges(5, []), complete_graph(4), oracles.graph_from_edges(4, [(0, 3)]),
        ]
        for trial in range(40):
            n = rng.randint(1, 30)
            graphs.append(oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1700 + trial))
        for number, g in enumerate(graphs):
            degree, relabel, unlabel = _degree_order(g)
            # new label j is old label order[j]
            order = sorted(range(g.n), key=lambda v: (g.degrees[v], v))

            def moved(mask):
                return sum(1 << j for j, v in enumerate(order) if mask >> v & 1)

            assert degree.rows == tuple(moved(g.rows[v]) for v in order), number
            complement = g.complement()
            assert degree.complement().rows == tuple(moved(complement.rows[v]) for v in order), number
            for mask in [0, (1 << g.n) - 1] + [rng.getrandbits(g.n) for _ in range(5)]:
                assert relabel(mask) == moved(mask), (number, mask)
                assert unlabel(moved(mask)) == mask, (number, mask)

    def test_rows_are_the_induced_subgraph_in_degree_order(self):
        rng = random.Random(70)
        for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70] + [rng.randint(0, 70) for _ in range(20)]:
            g = oracles.random_gnp(n, rng.uniform(0.05, 0.95), 7000 + n)
            degree, _, _ = _degree_order(g)
            assert degree.rows == oracles.induced_subgraph(g, oracles.degree_order(g)).rows, n

    def test_matrix_past_one_column_chunk_matches_string_gather(self):
        h = oracles.random_hamiltonian(random.Random(800), 800, 12, max_weight=4)
        g = build_qwc_graph(h)
        assert g.n * -(-g.n // 8) > _CHUNK_BYTES  # more than one column chunk
        degree, _, _ = _degree_order(g)
        assert degree.rows == oracles.string_gather_degree_order(g)


class TestRamseyClique:
    def test_complete_graph(self):
        assert ramsey_clique(complete_graph(6)) == 0b111111

    def test_edgeless_graph(self):
        assert ramsey_clique(oracles.graph_from_edges(5, [])) == 0b1

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
                assert not found <= set(oracles.members(g.rows[v])) | {v}, (trial, v)

    def test_matches_recursive_definition(self):
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(0, 40)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            alive = rng.getrandbits(n) if n else 0
            expected = oracles.recursive_ramsey_clique(g, alive)
            assert ramsey_clique(g, alive=alive) == oracles.mask_of(expected), trial

    @pytest.mark.parametrize("seed", [68, 297, 1230, 2160])
    def test_extension_adds_to_a_non_maximal_pivot_clique(self, seed):
        # graphs and alive masks on which the pivot construction alone
        # stops at a clique that some alive vertex extends
        rng = random.Random(seed)
        n = rng.randint(4, 16)
        g = oracles.random_gnp(n, rng.choice([0.3, 0.5, 0.7]), seed)
        alive = rng.getrandbits(n) | 1
        pivot = oracles.recursive_ramsey_pivot_clique(g, alive)
        expected = oracles.recursive_ramsey_clique(g, alive)
        assert len(expected) > len(pivot)
        assert ramsey_clique(g, alive=alive) == oracles.mask_of(expected)

    def test_deep_recursion_safe(self):
        # complete graph drives the pivot chain through every vertex
        assert ramsey_clique(complete_graph(1100)).bit_count() == 1100

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_recursive_definition_on_any_alive_mask(self, data):
        n = data.draw(st.integers(0, 24))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        g = oracles.graph_from_edges(n, edges)
        alive = data.draw(st.integers(0, (1 << n) - 1))
        expected = oracles.mask_of(oracles.recursive_ramsey_clique(g, alive))
        assert ramsey_clique(g, alive=alive) == expected
        # before the greedy extension, which can hide a wrong pivot clique
        pivot = oracles.mask_of(oracles.recursive_ramsey_pivot_clique(g, alive))
        assert _ramsey_clique_mask(g, alive) == pivot


def recursive_ramsey_cover(g):
    """Repeated extraction of the recursive definition's clique."""
    groups = []
    alive = (1 << g.n) - 1
    while alive:
        groups.append(oracles.mask_of(oracles.recursive_ramsey_clique(g, alive)))
        alive ^= groups[-1]
    return tuple(groups)


def disjoint_cliques(k, size, rng):
    """``k`` disjoint cliques of ``size`` vertices each, labels shuffled."""
    labels = list(range(k * size))
    rng.shuffle(labels)
    edges = [
        (labels[c * size + i], labels[c * size + j])
        for c in range(k)
        for i, j in itertools.combinations(range(size), 2)
    ]
    return oracles.graph_from_edges(k * size, edges)


class TestRamseyCoverMatchesRecursiveDefinition:
    # The pivot construction skips branches too small to win; every
    # extraction must still return the recursive definition's clique.
    def test_qwc_graphs_of_random_words(self):
        rng = random.Random(25)
        for trial in range(30):
            h = oracles.random_hamiltonian(
                random.Random(3000 + trial), rng.randint(1, 150), rng.randint(8, 12),
                max_weight=rng.randint(2, 4),
            )
            g = build_qwc_graph(h)
            assert clique_removal_cover(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), trial

    def test_sparse_random_graphs(self):
        # few neighbors, so most pivot branches are too small to win
        rng = random.Random(26)
        for trial in range(30):
            g = oracles.random_gnp(rng.randint(1, 150), rng.uniform(0.05, 0.2), 3100 + trial)
            assert clique_removal_cover(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), trial

    def test_disjoint_equal_cliques(self):
        # every chain clique ties with the first, which must win
        rng = random.Random(27)
        for k, size in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (8, 5), (3, 9), (12, 6)]:
            g = disjoint_cliques(k, size, rng)
            cover = clique_removal_cover(g, Heuristic.RAMSEY)
            assert cover == recursive_ramsey_cover(g), (k, size)
            assert sorted(group.bit_count() for group in cover) == [size] * k


class TestCliqueRemovalCover:
    def test_demo_graph_bkt(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.BKT)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_demo_graph_ramsey(self, demo_graph):
        cover = clique_removal_cover(demo_graph, Heuristic.RAMSEY)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_edgeless_graph_singletons(self):
        g = oracles.graph_from_edges(4, [])
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

    @pytest.mark.parametrize("name", ["lf", "bkt"])
    def test_solve_mcc_rejects_a_heuristic_name(self, demo_graph, name):
        with pytest.raises(TypeError, match=f"must be a Heuristic, got '{name}'"):
            solve_mcc(demo_graph, name)

    def test_budget_propagates(self):
        g = oracles.random_gnp(30, 0.7, 9)
        with pytest.raises(BudgetExceededError):
            clique_removal_cover(g, Heuristic.BKT, node_budget=3)

    def test_negative_budget_rejected(self):
        for g in (complete_graph(5), TermGraph([])):
            with pytest.raises(ValueError, match="node budget must be at least 0, got -1"):
                clique_removal_cover(g, Heuristic.BKT, node_budget=-1)
            with pytest.raises(ValueError, match="node budget must be at least 0, got -2"):
                solve_mcc(g, Heuristic.BKT, node_budget=-2)
        # Only the exact finder has a budget.
        assert clique_removal_cover(complete_graph(5), Heuristic.RAMSEY, node_budget=-1) == (0b11111,)

    def test_non_integer_budget_rejected(self):
        h = oracles.random_hamiltonian(random.Random(400), 400, 13, max_weight=4)
        for g in (build_qwc_graph(h), complete_graph(5), TermGraph([])):
            with pytest.raises(TypeError):
                clique_removal_cover(g, Heuristic.BKT, node_budget=705.5)
            with pytest.raises(TypeError):
                solve_mcc(g, Heuristic.BKT, node_budget=705.5)
        assert clique_removal_cover(complete_graph(5), Heuristic.RAMSEY, node_budget=0.5) == (0b11111,)

    def test_bool_budget_rejected(self):
        # True == 1 would allow one search node and fail as "exceeded True nodes"
        for g in (TermGraph([0b10, 0b01]), TermGraph([])):
            for budget in (True, False):
                with pytest.raises(TypeError, match="not a bool"):
                    clique_removal_cover(g, Heuristic.BKT, node_budget=budget)
                with pytest.raises(TypeError, match="not a bool"):
                    solve_mcc(g, Heuristic.BKT, node_budget=budget)

    def test_budget_spares_the_proof(self):
        # the hardest extraction here needs 706 nodes and not one fewer; its
        # clique number fell, so the search runs to the end there.  The
        # search run to the end in label order needed 21,434.
        h = oracles.random_hamiltonian(random.Random(400), 400, 13, max_weight=4)
        g = build_qwc_graph(h)
        cover = clique_removal_cover(g, Heuristic.BKT, node_budget=706)
        validate_cover(g, cover)
        with pytest.raises(BudgetExceededError):
            clique_removal_cover(g, Heuristic.BKT, node_budget=705)

    def test_matches_relabelling_reference(self, demo_graph):
        rng = random.Random(6)
        # in the last two, an extraction's search stops at the previous
        # extraction's size, below its root coloring's class count
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
            references = {
                Heuristic.BKT: oracles.degree_order_clique_removal(g),
                Heuristic.RAMSEY: oracles.relabelling_clique_removal(g, Heuristic.RAMSEY),
            }
            for finder, reference in references.items():
                expected = tuple(map(oracles.mask_of, reference))
                assert clique_removal_cover(g, finder) == expected, (number, finder)

    def test_covers_partition_random_graphs(self):
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randint(1, 12)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            for finder in (Heuristic.BKT, Heuristic.RAMSEY):
                cover = clique_removal_cover(g, finder)
                validate_cover(g, cover)

    def test_bkt_groups_are_maximum_cliques_of_their_alive_sets(self):
        # the previous clique's size, which bounds each search of a cover,
        # only prunes: every group is the clique a standalone search finds
        rng = random.Random(9)
        for trial in range(40):
            n = rng.randint(1, 14)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.9), 2600 + trial)
            alive = (1 << n) - 1
            for group in clique_removal_cover(g, Heuristic.BKT):
                residual = oracles.induced_subgraph(g, oracles.members(alive))
                assert oracles.is_clique(g, group), trial
                assert group.bit_count() == len(oracles.brute_force_max_clique(residual)), trial
                assert max_clique_bkt(g, alive=alive) == group, trial
                alive ^= group
            assert not alive, trial


class TestRemovalCanExceedMinimum:
    def test_trap_graph_strict_inequality(self):
        g = removal_trap_graph()
        # the unique maximum clique straddles both natural groups
        assert max_clique_bkt(g) == 0b110111  # {0, 1, 2, 4, 5}
        removal = clique_removal_cover(g, Heuristic.BKT)
        validate_cover(g, removal)
        optimum = oracles.exact_mcc(g)
        validate_cover(g, optimum)
        assert len(optimum) == 2
        assert len(removal) == 3
        assert len(removal) > len(optimum)

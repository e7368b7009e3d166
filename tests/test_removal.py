import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEMO_MINIMUM_GROUPS, benchmark_graphs, removal_trap_graph
from qwcover import (
    BudgetExceededError,
    Heuristic,
    TermGraph,
    build_qwc_graph,
    iter_bits,
    parse_hamiltonian,
    solve_mcc,
    validate_cover,
)
from qwcover.graph import _CHUNK_BYTES
from qwcover.removal import _degree_order, _ramsey_clique_mask, ramsey_clique

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = sorted(path.name for path in GOLDEN.glob("*.ham"))


def complete_graph(n):
    return oracles.graph_from_edges(n, itertools.combinations(range(n), 2))


def ramsey_whole(g):
    """``ramsey_clique``'s clique with every vertex alive."""
    return ramsey_clique(g, (1 << g.n) - 1)[0]


def assert_colored_of_earlier_search(g, alive, clique):
    """``bkt``'s search finds ``clique`` within exactly the budget of
    colored vertices that the earlier search over ``(vertex, color)``
    pairs colored, and not one fewer."""
    found, _, colored = oracles.counted_max_clique_bkt(g, alive=alive)
    assert found == clique
    assert oracles.bkt_search(g, budget=colored, alive=alive) == clique
    with pytest.raises(BudgetExceededError):
        oracles.bkt_search(g, budget=colored - 1, alive=alive)


class TestMaxCliqueBkt:
    # One search of bkt, run alone on any alive mask through
    # oracles.bkt_search; a cover runs it once per extraction.
    def test_complete_graph(self):
        assert oracles.bkt_search(complete_graph(5)) == 0b11111

    def test_edgeless_graph_lowest_index(self):
        assert oracles.bkt_search(oracles.graph_from_edges(4, [])) == 0b1

    def test_demo_graph(self, demo_graph):
        assert oracles.bkt_search(demo_graph) == 0b1111

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for trial in range(40):
            n = rng.randint(1, 12)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.9), 300 + trial)
            found = oracles.bkt_search(g)
            assert oracles.is_clique(g, found)
            assert found.bit_count() == len(oracles.brute_force_max_clique(g)), trial

    def test_budget_exceeded(self):
        g = oracles.random_gnp(30, 0.7, 8)
        with pytest.raises(BudgetExceededError, match="exceeded"):
            oracles.bkt_search(g, budget=3)

    def test_zero_budget_exceeded_at_once(self):
        # the root's coloring already colors one vertex
        with pytest.raises(BudgetExceededError, match="exceeded 0 colored vertices"):
            oracles.bkt_search(complete_graph(1), budget=0)

    def test_deterministic(self):
        g = oracles.random_gnp(14, 0.6, 77)
        assert oracles.bkt_search(g) == oracles.bkt_search(g)

    def test_matches_full_search(self):
        # the search stopped at an upper bound returns the clique of the
        # search run to the end on the degree-ordered graph
        rng = random.Random(7)
        for trial in range(300):
            n = rng.randint(1, 60)
            g = oracles.random_gnp(n, rng.choice([0.3, 0.5, 0.7, 0.8, 0.9]), 2000 + trial)
            alive = (1 << n) - 1 if trial % 2 == 0 else rng.getrandbits(n) or 1
            expected = oracles.mask_of(oracles.degree_order_max_clique_bkt(g, alive=alive))
            assert oracles.bkt_search(g, alive=alive) == expected, trial
            assert_colored_of_earlier_search(g, alive, expected)

    @pytest.mark.parametrize("name", GOLDEN_INPUTS)
    def test_golden_covers_match_full_search(self, name):
        g = build_qwc_graph(parse_hamiltonian((GOLDEN / name).read_text()))
        expected = []
        alive = (1 << g.n) - 1
        while alive:
            clique = oracles.mask_of(oracles.degree_order_max_clique_bkt(g, alive=alive))
            assert_colored_of_earlier_search(g, alive, clique)
            expected.append(clique)
            alive &= ~clique
        assert solve_mcc(g, Heuristic.BKT) == tuple(expected)
        # inside a cover each search is also bounded by the previous
        # clique's size, and the budget spans every extraction
        extractions = oracles.counted_bkt_cover(g)
        assert [clique for clique, _, _ in extractions] == expected
        budget = sum(colored for _, _, colored in extractions)
        assert solve_mcc(g, Heuristic.BKT, budget=budget) == tuple(expected)
        with pytest.raises(BudgetExceededError):
            solve_mcc(g, Heuristic.BKT, budget=budget - 1)

    def test_deep_search_leaves_recursion_limit_alone(self):
        # the search descends once per clique member, past the default limit
        limit = sys.getrecursionlimit()
        g = complete_graph(1100)
        for finder in (oracles.bkt_search, ramsey_whole):
            assert finder(g) == (1 << 1100) - 1
            assert sys.getrecursionlimit() == limit


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
            degree, unlabel = _degree_order(g)
            # new label j is old label order[j]
            order = sorted(range(g.n), key=lambda v: (g.degrees[v], v))

            def moved(mask):
                return sum(1 << j for j, v in enumerate(order) if mask >> v & 1)

            assert degree.rows == tuple(moved(g.rows[v]) for v in order), number
            complement = g.complement()
            assert degree.complement().rows == tuple(moved(complement.rows[v]) for v in order), number
            for mask in [0, (1 << g.n) - 1] + [rng.getrandbits(g.n) for _ in range(5)]:
                assert unlabel(moved(mask)) == mask, (number, mask)

    def test_rows_are_the_induced_subgraph_in_degree_order(self):
        rng = random.Random(70)
        for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70] + [rng.randint(0, 70) for _ in range(20)]:
            g = oracles.random_gnp(n, rng.uniform(0.05, 0.95), 7000 + n)
            degree, _ = _degree_order(g)
            assert degree.rows == oracles.induced_subgraph(g, oracles.degree_order(g)).rows, n

    def test_matrix_past_one_column_chunk_matches_string_gather(self):
        h = oracles.random_hamiltonian(random.Random(800), 800, 12, max_weight=4)
        g = build_qwc_graph(h)
        assert g.n * -(-g.n // 8) > _CHUNK_BYTES  # more than one column chunk
        degree, _ = _degree_order(g)
        assert degree.rows == oracles.string_gather_degree_order(g)


class TestRamseyClique:
    def test_complete_graph(self):
        assert ramsey_whole(complete_graph(6)) == 0b111111

    def test_edgeless_graph(self):
        assert ramsey_whole(oracles.graph_from_edges(5, [])) == 0b1

    def test_empty_graph(self):
        assert ramsey_whole(TermGraph([])) == 0

    def test_always_a_clique_and_never_bigger_than_maximum(self):
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(1, 10)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 600 + trial)
            found = ramsey_whole(g)
            assert oracles.is_clique(g, found)
            assert found.bit_count() <= oracles.bkt_search(g).bit_count()

    def test_result_is_maximal(self):
        rng = random.Random(4)
        for trial in range(30):
            n = rng.randint(1, 11)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.8), 900 + trial)
            found = set(oracles.members(ramsey_whole(g)))
            for v in set(range(n)) - found:
                assert not found <= set(oracles.members(g.rows[v])) | {v}, (trial, v)

    def test_matches_recursive_definition(self):
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(0, 40)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            alive = rng.getrandbits(n) if n else 0
            expected = oracles.recursive_ramsey_clique(g, alive)
            assert ramsey_clique(g, alive)[0] == oracles.mask_of(expected), trial

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
        assert ramsey_clique(g, alive)[0] == oracles.mask_of(expected)

    def test_deep_recursion_safe(self):
        # complete graph drives the pivot chain through every vertex
        assert ramsey_whole(complete_graph(1100)).bit_count() == 1100

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_recursive_definition_on_any_alive_mask(self, data):
        n = data.draw(st.integers(0, 24))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        g = oracles.graph_from_edges(n, edges)
        alive = data.draw(st.integers(0, (1 << n) - 1))
        expected = oracles.mask_of(oracles.recursive_ramsey_clique(g, alive))
        assert ramsey_clique(g, alive)[0] == expected
        # before the greedy extension, which can hide a wrong pivot clique
        pivot = oracles.mask_of(oracles.recursive_ramsey_pivot_clique(g, alive))
        clique, isolated = _ramsey_clique_mask(g, alive)
        assert clique == pivot
        # the vertices reported isolated are alive and have no alive neighbor
        assert isolated & ~alive == 0
        assert all(not g.rows[v] & alive for v in iter_bits(isolated))


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
            assert solve_mcc(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), trial

    def test_sparse_random_graphs(self):
        # few neighbors, so most pivot branches are too small to win
        rng = random.Random(26)
        for trial in range(30):
            g = oracles.random_gnp(rng.randint(1, 150), rng.uniform(0.05, 0.2), 3100 + trial)
            assert solve_mcc(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), trial

    def test_disjoint_equal_cliques(self):
        # every chain clique ties with the first, which must win
        rng = random.Random(27)
        for k, size in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (8, 5), (3, 9), (12, 6)]:
            g = disjoint_cliques(k, size, rng)
            cover = solve_mcc(g, Heuristic.RAMSEY)
            assert cover == recursive_ramsey_cover(g), (k, size)
            assert sorted(group.bit_count() for group in cover) == [size] * k


class TestRamseyCoverShortcuts:
    # The cover leaves isolated vertices out of its searches and ends with
    # the alive vertices as single groups, in ascending index, once a
    # search finds no clique of two; the groups stay those of repeated
    # extraction on every alive vertex.
    @pytest.mark.parametrize("where", ["below", "between", "above"])
    def test_isolated_vertices_around_the_edges(self, where):
        rng = random.Random(28)
        for trial in range(20):
            core = oracles.random_gnp(rng.randint(2, 30), rng.uniform(0.05, 0.5), 3200 + trial)
            k = rng.randint(1, 8)
            n = core.n + k
            isolated = {
                "below": range(k),
                "between": rng.sample(range(1, n - 1), k),
                "above": range(core.n, n),
            }[where]
            labels = sorted(set(range(n)).difference(isolated))
            edges = [(labels[a], labels[b]) for a, b in oracles.edge_set(core)]
            g = oracles.graph_from_edges(n, edges)
            assert solve_mcc(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), trial

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
    def test_edgeless_graphs(self, n):
        g = oracles.graph_from_edges(n, [])
        cover = solve_mcc(g, Heuristic.RAMSEY)
        assert cover == recursive_ramsey_cover(g) == tuple(1 << v for v in range(n))

    def test_benchmark_many_small_inputs(self, monkeypatch):
        graphs = benchmark_graphs(monkeypatch, "many-small")
        assert len(graphs) == 240
        for name, g in graphs.items():
            assert solve_mcc(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g), name

    def test_benchmark_jw10(self, monkeypatch):
        g = benchmark_graphs(monkeypatch, "poly-large")["jw-10"]
        assert solve_mcc(g, Heuristic.RAMSEY) == recursive_ramsey_cover(g)

    def test_single_groups_come_in_ascending_index(self, monkeypatch):
        # In the 18-term random-3, term 13 is found isolated before the
        # last group of two or more.  The searches that skip it then return
        # 12 and 16 alone, so emitting only the term each search returns
        # would give 12, 16, 13 where extraction gives 12, 13, 16: the same
        # groups in a different report.
        g = benchmark_graphs(monkeypatch, "many-small")["random-3"]
        cover = solve_mcc(g, Heuristic.RAMSEY)
        assert cover[-3:] == (1 << 12, 1 << 13, 1 << 16)
        assert cover == recursive_ramsey_cover(g)


class TestCliqueRemovalCover:
    def test_demo_graph_bkt(self, demo_graph):
        cover = solve_mcc(demo_graph, Heuristic.BKT)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_demo_graph_ramsey(self, demo_graph):
        cover = solve_mcc(demo_graph, Heuristic.RAMSEY)
        assert set(cover) == DEMO_MINIMUM_GROUPS

    def test_edgeless_graph_singletons(self):
        g = oracles.graph_from_edges(4, [])
        cover = solve_mcc(g, Heuristic.BKT)
        assert cover == (0b0001, 0b0010, 0b0100, 0b1000)

    def test_groups_in_extraction_order(self, demo_graph):
        cover = solve_mcc(demo_graph, Heuristic.BKT)
        assert cover[0] == 0b1111  # the maximum clique

    def test_empty_graph(self):
        cover = solve_mcc(TermGraph([]), Heuristic.BKT)
        assert cover == ()

    @pytest.mark.parametrize("name", ["lf", "bkt"])
    def test_solve_mcc_rejects_a_heuristic_name(self, demo_graph, name):
        with pytest.raises(TypeError, match=f"must be a Heuristic, got '{name}'"):
            solve_mcc(demo_graph, name)

    def test_budget_propagates(self):
        g = oracles.random_gnp(30, 0.7, 9)
        with pytest.raises(BudgetExceededError):
            solve_mcc(g, Heuristic.BKT, budget=3)

    def test_negative_budget_rejected(self):
        # A negative budget is an error, not a search without a limit.
        for g in (complete_graph(5), TermGraph([])):
            with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
                solve_mcc(g, Heuristic.BKT, budget=-1)
        # Only the exact finder has a budget.
        assert solve_mcc(complete_graph(5), Heuristic.RAMSEY, budget=-1) == (0b11111,)

    def test_non_integer_budget_rejected(self):
        h = oracles.random_hamiltonian(random.Random(400), 400, 13, max_weight=4)
        for g in (build_qwc_graph(h), complete_graph(5), TermGraph([])):
            for budget in (705.5, 1.0):
                with pytest.raises(TypeError):
                    solve_mcc(g, Heuristic.BKT, budget=budget)
        assert solve_mcc(complete_graph(5), Heuristic.RAMSEY, budget=0.5) == (0b11111,)

    def test_bool_budget_rejected(self):
        # True == 1 would allow one colored vertex and fail as "exceeded True ..."
        for g in (TermGraph([0b10, 0b01]), TermGraph([])):
            for budget in (True, False):
                with pytest.raises(TypeError, match="not a bool"):
                    solve_mcc(g, Heuristic.BKT, budget=budget)

    def test_budget_spares_the_proof(self):
        # the whole cover colors 167,411 vertices in 3,027 search nodes
        # and needs every one; its hardest extraction (706 nodes, 67,741
        # colored) proves that the clique number fell, so the search runs
        # to the end there.
        h = oracles.random_hamiltonian(random.Random(400), 400, 13, max_weight=4)
        g = build_qwc_graph(h)
        extractions = oracles.counted_bkt_cover(g)
        assert sum(colored for _, _, colored in extractions) == 167_411
        cover = solve_mcc(g, Heuristic.BKT, budget=167_411)
        validate_cover(g, cover)
        assert cover == tuple(clique for clique, _, _ in extractions)
        with pytest.raises(BudgetExceededError):
            solve_mcc(g, Heuristic.BKT, budget=167_410)

    def test_budget_spans_the_cover(self):
        # each extraction's search fits the budget alone, but the cover's
        # extractions together color more, so the cover fails
        g = build_qwc_graph(parse_hamiltonian((GOLDEN / "random-60.ham").read_text()))
        colored = [colored for _, _, colored in oracles.counted_bkt_cover(g)]
        budget = max(colored)
        assert len(colored) > 1 and sum(colored) > budget
        with pytest.raises(BudgetExceededError):
            solve_mcc(g, Heuristic.BKT, budget=budget)
        assert len(solve_mcc(g, Heuristic.BKT, budget=sum(colored))) == len(colored)

    def test_budget_error_says_how_far_the_cover_got(self):
        # The cover's 13 extractions color 639 vertices, so at 638 the
        # last one fails with the other 12 groups, 58 of 60 terms, out.
        g = build_qwc_graph(parse_hamiltonian((GOLDEN / "random-60.ham").read_text()))
        extractions = oracles.counted_bkt_cover(g)
        assert sum(colored for _, _, colored in extractions) == 639
        assert sum(clique.bit_count() for clique, _, _ in extractions[:-1]) == 58
        message = (
            "maximum-clique search exceeded 638 colored vertices"
            " after 12 groups covering 58 of 60 terms"
        )
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            solve_mcc(g, Heuristic.BKT, budget=638)

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
                assert solve_mcc(g, finder) == expected, (number, finder)

    def test_covers_partition_random_graphs(self):
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randint(1, 12)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 1200 + trial)
            for finder in (Heuristic.BKT, Heuristic.RAMSEY):
                cover = solve_mcc(g, finder)
                validate_cover(g, cover)

    def test_bkt_groups_are_maximum_cliques_of_their_alive_sets(self):
        # the previous clique's size, which bounds each search of a cover,
        # only prunes: every group is the clique a standalone search finds
        rng = random.Random(9)
        for trial in range(40):
            n = rng.randint(1, 14)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.9), 2600 + trial)
            alive = (1 << n) - 1
            for group in solve_mcc(g, Heuristic.BKT):
                residual = oracles.induced_subgraph(g, oracles.members(alive))
                assert oracles.is_clique(g, group), trial
                assert group.bit_count() == len(oracles.brute_force_max_clique(residual)), trial
                assert oracles.bkt_search(g, alive=alive) == group, trial
                alive ^= group
            assert not alive, trial


class TestRemovalCanExceedMinimum:
    def test_trap_graph_strict_inequality(self):
        g = removal_trap_graph()
        # the unique maximum clique straddles both natural groups
        assert oracles.bkt_search(g) == 0b110111  # {0, 1, 2, 4, 5}
        removal = solve_mcc(g, Heuristic.BKT)
        validate_cover(g, removal)
        optimum = oracles.exact_mcc(g)
        validate_cover(g, optimum)
        assert len(optimum) == 2
        assert len(removal) == 3
        assert len(removal) > len(optimum)

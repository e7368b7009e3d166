import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEMO_MINIMUM_GROUPS
from qwcover import (
    Coloring,
    Heuristic,
    TermGraph,
    build_qwc_graph,
    cosine_coloring,
    cover_from_coloring,
    db_coloring,
    dsatur_coloring,
    input_order,
    largest_first_order,
    parse_hamiltonian,
    rlf_coloring,
    sequential_coloring,
    smallest_last_order,
    solve_mcc,
)
from qwcover.coloring import _decrement, _increment, _keep_max, _keep_min, _planes

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_COLORINGS = {
    "gc": lambda g: sequential_coloring(g, input_order(g)),
    "lf": lambda g: sequential_coloring(g, largest_first_order(g)),
    "sl": lambda g: sequential_coloring(g, smallest_last_order(g)),
    "dsatur": dsatur_coloring,
    "rlf": rlf_coloring,
    "db": db_coloring,
    "cosine": cosine_coloring,
}


def complete_graph(n):
    return TermGraph.from_edges(n, itertools.combinations(range(n), 2))


def edgeless_graph(n):
    return TermGraph.from_edges(n, [])


def path_graph(n):
    return TermGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return TermGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestColoringType:
    def test_colors_must_be_contiguous(self):
        with pytest.raises(ValueError, match="0..n_colors-1"):
            Coloring((0, 2), 3)

    def test_classes(self):
        c = Coloring((0, 1, 0), 2)
        assert c.classes() == [[0, 2], [1]]


class TestSequential:
    def test_edgeless_one_color(self):
        g = edgeless_graph(6)
        assert sequential_coloring(g, input_order(g)).n_colors == 1

    def test_complete_n_colors(self):
        g = complete_graph(5)
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            assert sequential_coloring(g, order).n_colors == 5

    def test_lowest_available_color_chosen(self):
        # path 0-1-2: coloring order (1, 0, 2) gives 1->0, then both ends
        # see only color 0 and reuse color 1? no: lowest absent is 1,1
        g = path_graph(3)
        coloring = sequential_coloring(g, [1, 0, 2])
        assert coloring.color_of == (1, 0, 1)

    def test_rejects_non_permutation(self):
        g = edgeless_graph(3)
        with pytest.raises(ValueError, match="permutation"):
            sequential_coloring(g, [0, 1, 1])

    def test_demo_complement_lf_two_colors(self, demo_graph):
        comp = demo_graph.complement()
        assert sequential_coloring(comp, largest_first_order(comp)).n_colors == 2


class TestOrders:
    def test_input_order_is_identity(self, demo_graph):
        assert input_order(demo_graph) == tuple(range(7))
        assert input_order(edgeless_graph(0)) == ()

    def test_lf_star_center_first(self):
        star = TermGraph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert largest_first_order(star)[0] == 0

    def test_lf_regular_graph_index_order(self):
        assert largest_first_order(cycle_graph(6)) == tuple(range(6))

    def test_lf_path_tie_break(self):
        # degrees (1, 2, 1): middle vertex first, then ties by index
        assert largest_first_order(path_graph(3)) == (1, 0, 2)

    def test_sl_path(self):
        # peeling: 0 (deg 1, lowest index) goes to the back, then 1, then 2
        assert smallest_last_order(path_graph(3)) == (2, 1, 0)

    def test_sl_complete_and_edgeless(self):
        # all degrees tie at every step: 0 peeled first, placed last
        assert smallest_last_order(complete_graph(4)) == (3, 2, 1, 0)
        assert smallest_last_order(edgeless_graph(4)) == (3, 2, 1, 0)

    def test_sl_is_reverse_min_degree_peeling(self):
        # independent re-derivation with explicit set bookkeeping
        g = oracles.random_gnp(9, 0.4, 11)
        remaining = set(range(9))
        peel = []
        while remaining:
            v = min(
                remaining,
                key=lambda u: (sum(1 for w in g.neighbors(u) if w in remaining), u),
            )
            peel.append(v)
            remaining.discard(v)
        assert smallest_last_order(g) == tuple(reversed(peel))

    def test_orders_are_permutations(self):
        g = oracles.random_gnp(12, 0.5, 5)
        for order_fn in (input_order, largest_first_order, smallest_last_order):
            assert sorted(order_fn(g)) == list(range(12))


class TestDsatur:
    def test_odd_cycle_three_colors(self):
        assert dsatur_coloring(cycle_graph(5)).n_colors == 3

    def test_even_cycle_two_colors(self):
        assert dsatur_coloring(cycle_graph(6)).n_colors == 2

    def test_demo_complement_two_colors(self, demo_graph):
        assert dsatur_coloring(demo_graph.complement()).n_colors == 2


class TestScanOracle:
    """The bit-sliced counters reproduce the full-scan solvers exactly."""

    def test_random_graphs(self):
        rng = random.Random(4)
        for trial in range(1000):
            n = rng.randint(0, 70)
            g = oracles.random_gnp(n, rng.choice([0, 0.15, 0.5, 0.85, 1]), trial)
            assert smallest_last_order(g) == oracles.scan_smallest_last_order(g), trial
            assert dsatur_coloring(g) == oracles.scan_dsatur_coloring(g), trial

    @pytest.mark.parametrize("name", ["jw-8", "bk-8"])
    def test_golden_molecule_complements(self, name):
        h = parse_hamiltonian((GOLDEN / f"{name}.ham").read_text())
        comp = build_qwc_graph(h).complement()
        assert smallest_last_order(comp) == oracles.scan_smallest_last_order(comp)
        assert dsatur_coloring(comp) == oracles.scan_dsatur_coloring(comp)


@st.composite
def counter_scripts(draw):
    """Start counts, then steps of (increment?, mask, candidates)."""
    n = draw(st.integers(0, 10))
    counts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    masks = st.integers(0, (1 << n) - 1)
    steps = draw(st.lists(st.tuples(st.booleans(), masks, masks), max_size=12))
    return counts, steps


def unslice(planes, n):
    return [sum((plane >> u & 1) << j for j, plane in enumerate(planes)) for u in range(n)]


class TestBitSlicedCounters:
    @settings(max_examples=300, deadline=None)
    @given(counter_scripts())
    @example(([7], [(True, 1, 1)]))  # carry into a new top plane
    @example(([1, 2, 1], [(False, 0b111, 0b111)]))  # decrements to 0
    @example(([3, 0, 5], [(True, 0, 0b111), (False, 0, 0b101)]))  # empty mask
    @example(([], [(True, 0, 0), (False, 0, 0)]))  # empty graph
    def test_matches_list_model(self, script):
        counts, steps = script
        n = len(counts)
        planes = _planes(counts)
        model = list(counts)
        assert unslice(planes, n) == model
        for grow, mask, candidates in steps:
            if grow:
                _increment(planes, mask)
            else:
                # a decrement applies only to positive counts
                mask &= sum(1 << u for u, count in enumerate(model) if count)
                _decrement(planes, mask)
            for u in range(n):
                if mask >> u & 1:
                    model[u] += 1 if grow else -1
            assert unslice(planes, n) == model
            members = [u for u in range(n) if candidates >> u & 1]
            for keep, best in ((_keep_min, min), (_keep_max, max)):
                target = best((model[u] for u in members), default=None)
                expected = sum(1 << u for u in members if model[u] == target)
                assert keep(planes, candidates) == expected

    def test_carry_grows_a_plane(self):
        planes = _planes([7, 1])
        _increment(planes, 0b11)
        assert planes == [0, 0b10, 0, 0b01]

    def test_empty_graph(self):
        assert _planes([]) == []
        assert smallest_last_order(edgeless_graph(0)) == ()
        assert dsatur_coloring(edgeless_graph(0)) == Coloring((), 0)


class TestRlf:
    def test_complete_graph(self):
        assert rlf_coloring(complete_graph(5)).n_colors == 5

    def test_edgeless_graph(self):
        assert rlf_coloring(edgeless_graph(5)).n_colors == 1

    def test_demo_complement_two_colors(self, demo_graph):
        assert rlf_coloring(demo_graph.complement()).n_colors == 2


class TestMergeSchemes:
    def test_db_complete_graph_no_merges(self):
        assert db_coloring(complete_graph(4)).n_colors == 4

    def test_db_edgeless_single_color(self):
        assert db_coloring(edgeless_graph(5)).n_colors == 1

    def test_db_demo_complement(self, demo_graph):
        assert db_coloring(demo_graph.complement()).n_colors == 2

    def test_cosine_complete_graph(self):
        assert cosine_coloring(complete_graph(4)).n_colors == 4

    def test_cosine_edgeless(self):
        assert cosine_coloring(edgeless_graph(5)).n_colors == 1

    def test_cosine_demo_complement(self, demo_graph):
        assert cosine_coloring(demo_graph.complement()).n_colors == 2


class TestPropernessProperty:
    @pytest.mark.parametrize("name", sorted(ALL_COLORINGS))
    def test_always_proper(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        for trial in range(40):
            n = rng.randint(1, 14)
            g = oracles.random_gnp(n, rng.choice([0.15, 0.4, 0.7, 0.9]), trial)
            coloring = ALL_COLORINGS[name](g)
            assert oracles.is_proper_coloring(g, coloring.color_of), (name, trial)

    @pytest.mark.parametrize("name", sorted(ALL_COLORINGS))
    def test_deterministic(self, name):
        g = oracles.random_gnp(12, 0.5, 99)
        assert ALL_COLORINGS[name](g) == ALL_COLORINGS[name](g)


class TestCoverFromColoring:
    def test_demo_cover_groups(self, demo_hamiltonian, demo_graph):
        comp = demo_graph.complement()
        for name, fn in ALL_COLORINGS.items():
            cover = cover_from_coloring(demo_graph, fn(comp))
            assert set(cover.groups) == DEMO_MINIMUM_GROUPS, name

    def test_single_vertex(self):
        g = edgeless_graph(1)
        cover = cover_from_coloring(g, Coloring((0,), 1))
        assert cover.groups == (frozenset({0}),)

    def test_groups_sorted_by_min_member(self):
        g = edgeless_graph(3)
        cover = cover_from_coloring(g, Coloring((2, 1, 0), 3))
        assert [min(group) for group in cover.groups] == [0, 1, 2]

    def test_random_proper_colorings_make_valid_covers(self):
        rng = random.Random(4242)
        for trial in range(30):
            n = rng.randint(1, 10)
            g = oracles.random_gnp(n, 0.5, 1000 + trial)
            comp = g.complement()
            coloring = dsatur_coloring(comp)
            cover = cover_from_coloring(g, coloring)
            assert sorted(v for group in cover.groups for v in group) == list(range(n))
            for group in cover.groups:
                assert oracles.is_clique(g, group)


class TestSoundness:
    def test_never_beats_exact_minimum(self):
        from qwcover import exact_mcc

        rng = random.Random(31337)
        for trial in range(60):
            n = rng.randint(2, 10)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 5000 + trial)
            optimum = exact_mcc(g).n_groups
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                assert cover.n_groups >= optimum, (heuristic, trial)

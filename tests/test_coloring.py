import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEMO_MINIMUM_GROUPS
from qwcover import (
    Heuristic,
    InvalidCoverError,
    build_qwc_graph,
    cosine_coloring,
    cover_from_coloring,
    db_coloring,
    dsatur_coloring,
    input_order,
    iter_bits,
    largest_first_order,
    parse_hamiltonian,
    rlf_coloring,
    sequential_coloring,
    smallest_last_order,
    solve_mcc,
    validate_cover,
)
from qwcover.coloring import (
    _decrement,
    _increment,
    _keep_max,
    _keep_min,
    _most_shared,
)
from qwcover.graph import _planes

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
    return oracles.graph_from_edges(n, itertools.combinations(range(n), 2))


def edgeless_graph(n):
    return oracles.graph_from_edges(n, [])


def path_graph(n):
    return oracles.graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return oracles.graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestSequential:
    def test_edgeless_one_color(self):
        g = edgeless_graph(6)
        assert len(sequential_coloring(g, input_order(g))) == 1

    def test_complete_n_colors(self):
        g = complete_graph(5)
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            assert len(sequential_coloring(g, order)) == 5

    def test_lowest_available_color_chosen(self):
        # path 0-1-2: coloring order (1, 0, 2) gives 1->0, then both ends
        # see only color 0 and reuse color 1? no: lowest absent is 1,1
        g = path_graph(3)
        coloring = sequential_coloring(g, [1, 0, 2])
        assert coloring == [0b010, 0b101]

    def test_rejects_non_permutation(self):
        g = edgeless_graph(3)
        with pytest.raises(ValueError, match="permutation"):
            sequential_coloring(g, [0, 1, 1])

    def test_demo_complement_lf_two_colors(self, demo_graph):
        comp = demo_graph.complement()
        assert len(sequential_coloring(comp, largest_first_order(comp))) == 2


class TestOrders:
    def test_input_order_is_identity(self, demo_graph):
        assert input_order(demo_graph) == tuple(range(7))
        assert input_order(edgeless_graph(0)) == ()

    def test_lf_star_center_first(self):
        star = oracles.graph_from_edges(5, [(0, i) for i in range(1, 5)])
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
                key=lambda u: (sum(1 for w in oracles.members(g.rows[u]) if w in remaining), u),
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
        assert len(dsatur_coloring(cycle_graph(5))) == 3

    def test_even_cycle_two_colors(self):
        assert len(dsatur_coloring(cycle_graph(6))) == 2

    def test_demo_complement_two_colors(self, demo_graph):
        assert len(dsatur_coloring(demo_graph.complement())) == 2


class TestScanOracle:
    """The bit-sliced counters, the lazy DB row bounds, the one candidate
    scan and class-by-class COSINE reproduce the earlier solvers exactly."""

    def test_random_graphs(self):
        rng = random.Random(4)
        for trial in range(1000):
            n = rng.randint(0, 70)
            g = oracles.random_gnp(n, rng.choice([0, 0.15, 0.5, 0.85, 1]), trial)
            assert smallest_last_order(g) == oracles.scan_smallest_last_order(g), trial
            assert dsatur_coloring(g) == oracles.scan_dsatur_coloring(g), trial
            assert db_coloring(g) == oracles.scan_db_coloring(g), trial
            assert rlf_coloring(g) == oracles.scan_rlf_coloring(g), trial
            assert cosine_coloring(g) == oracles.merge_cosine_coloring(g), trial

    @pytest.mark.parametrize("name", ["jw-8", "bk-8"])
    def test_golden_molecule_complements(self, name):
        h = parse_hamiltonian((GOLDEN / f"{name}.ham").read_text())
        comp = build_qwc_graph(h).complement()
        assert smallest_last_order(comp) == oracles.scan_smallest_last_order(comp)
        assert dsatur_coloring(comp) == oracles.scan_dsatur_coloring(comp)
        assert db_coloring(comp) == oracles.scan_db_coloring(comp)
        assert rlf_coloring(comp) == oracles.scan_rlf_coloring(comp)
        assert cosine_coloring(comp) == oracles.merge_cosine_coloring(comp)

    @pytest.mark.parametrize("name", ["random-60", "random-150", "random-300", "all-mid shape"])
    def test_db_random_word_complements(self, name):
        # Dense complements with many merges: the bound levels rise and
        # fall over a wide range.  The last input has the shape of the
        # benchmark's 240-word random input.
        if name == "all-mid shape":
            h = oracles.random_hamiltonian(random.Random(240), 240, 12, max_weight=4)
        else:
            h = parse_hamiltonian((GOLDEN / f"{name}.ham").read_text())
        comp = build_qwc_graph(h).complement()
        assert db_coloring(comp) == oracles.scan_db_coloring(comp)

    @pytest.mark.parametrize("size, count", [(1, 9), (2, 7), (3, 5), (4, 4), (6, 3)])
    def test_db_tie_heavy_graphs(self, size, count):
        # Many rows share the top level: disjoint equal cliques, complete
        # multipartite graphs with equal parts, and cycles.
        n = size * count
        pairs = list(itertools.combinations(range(n), 2))
        same_part = [(a, b) for a, b in pairs if a // size == b // size]
        across = [(a, b) for a, b in pairs if a // size != b // size]
        for g in (
            oracles.graph_from_edges(n, same_part),
            oracles.graph_from_edges(n, across),
            cycle_graph(n),
        ):
            assert db_coloring(g) == oracles.scan_db_coloring(g)

    def test_db_merged_rows_run_out_of_partners_first(self):
        # 0 and 1 share every other vertex, so they merge first; the merged
        # 0 is then adjacent to all, and leaves while 2..7 still merge.  In
        # the second graph each of 0..3 merges with its own vertex above.
        hub = oracles.graph_from_edges(8, [(h, w) for h in (0, 1) for w in range(2, 8)])
        assert db_coloring(hub) == oracles.scan_db_coloring(hub) == [0b11, 0b11111100]
        pairs = oracles.graph_from_edges(
            8, [(a, b) for a, b in itertools.combinations(range(8), 2) if b != a + 4]
        )
        assert db_coloring(pairs) == oracles.scan_db_coloring(pairs)
        assert len(db_coloring(pairs)) == 4

    @pytest.mark.parametrize("n", [0, 1])
    def test_db_tiny_graphs(self, n):
        g = edgeless_graph(n)
        assert db_coloring(g) == oracles.scan_db_coloring(g) == [1 << v for v in range(n)]


@st.composite
def merge_steps(draw):
    """A graph on up to 12 vertices, a few merges already made, and one
    more non-adjacent pair ``u < v`` of active vertices to merge."""
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pair for pair, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    state = oracles._MergeState(oracles.graph_from_edges(n, edges))
    while True:
        options = [
            (u, v)
            for u, v in itertools.combinations(iter_bits(state.active), 2)
            if not state.rows[u] >> v & 1
        ]
        if not options:
            return None
        u, v = draw(st.sampled_from(options))
        if draw(st.booleans()):
            return state, u, v
        state.merge(u, v)


def pair_counts(state):
    """Common-neighbor count of every non-adjacent active pair ``a < b``."""
    return {
        (a, b): state.common_neighbors(a, b)
        for a, b in itertools.combinations(iter_bits(state.active), 2)
        if not state.rows[a] >> b & 1
    }


class TestMergeBound:
    """The claim behind the lazy DB bounds: merging ``v`` into ``u`` raises
    the count of a pair avoiding both by at most 1, only when one endpoint
    is adjacent to ``u`` alone and the other to ``v`` alone (so only for a
    row in ``N(u) ^ N(v)``), and gives no row a new partner."""

    @settings(max_examples=300, deadline=None)
    @given(merge_steps())
    def test_counts_rise_by_at_most_one_across_the_split(self, step):
        if step is None:
            return
        state, u, v = step
        only_u = state.rows[u] & ~state.rows[v]
        only_v = state.rows[v] & ~state.rows[u]
        before = pair_counts(state)
        state.merge(u, v)
        for (a, b), count in pair_counts(state).items():
            if u in (a, b):
                continue
            assert (a, b) in before
            across = (only_u >> a & only_v >> b | only_v >> a & only_u >> b) & 1
            assert count - before[a, b] <= across, (a, b)


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
        assert dsatur_coloring(edgeless_graph(0)) == []


@st.composite
def scan_inputs(draw):
    """Rows of up to 10 vertices (any bits), a mask and a candidate set."""
    n = draw(st.integers(0, 10))
    masks = st.integers(0, (1 << n) - 1)
    return draw(st.lists(masks, min_size=n, max_size=n)), draw(masks), draw(masks)


class TestMostShared:
    @settings(max_examples=500, deadline=None)
    @given(scan_inputs())
    @example(([0b110, 0b101, 0b011], 0b111, 0))  # no candidate
    @example(([0b110, 0b101, 0b011], 0, 0b110))  # empty mask: lowest candidate
    @example(([0b110, 0b101, 0b011], 0b111, 0b111))  # every candidate tied
    @example(([0b01, 0b11], 0b11, 0b11))  # a later candidate reaches |mask|
    def test_matches_brute_force(self, scan):
        rows, mask, candidates = scan
        best = max(
            (((rows[w] & mask).bit_count(), -w) for w in iter_bits(candidates)),
            default=(-1, None),
        )
        expected = (best[0], 0 if best[1] is None else 1 << -best[1])
        assert _most_shared(rows, mask, candidates, mask.bit_count()) == expected


class TestRlf:
    def test_complete_graph(self):
        assert len(rlf_coloring(complete_graph(5))) == 5

    def test_edgeless_graph(self):
        assert len(rlf_coloring(edgeless_graph(5))) == 1

    def test_demo_complement_two_colors(self, demo_graph):
        assert len(rlf_coloring(demo_graph.complement())) == 2


class TestMergeSchemes:
    def test_db_complete_graph_no_merges(self):
        assert len(db_coloring(complete_graph(4))) == 4

    def test_db_edgeless_single_color(self):
        assert len(db_coloring(edgeless_graph(5))) == 1

    def test_db_demo_complement(self, demo_graph):
        assert len(db_coloring(demo_graph.complement())) == 2

    def test_cosine_complete_graph(self):
        assert len(cosine_coloring(complete_graph(4))) == 4

    def test_cosine_edgeless(self):
        assert len(cosine_coloring(edgeless_graph(5))) == 1

    def test_cosine_demo_complement(self, demo_graph):
        assert len(cosine_coloring(demo_graph.complement())) == 2


class TestPropernessProperty:
    @pytest.mark.parametrize("name", sorted(ALL_COLORINGS))
    def test_always_proper(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        for trial in range(40):
            n = rng.randint(1, 14)
            g = oracles.random_gnp(n, rng.choice([0.15, 0.4, 0.7, 0.9]), trial)
            coloring = ALL_COLORINGS[name](g)
            assert oracles.is_proper_coloring(g, coloring), (name, trial)

    @pytest.mark.parametrize("name", sorted(ALL_COLORINGS))
    def test_deterministic(self, name):
        g = oracles.random_gnp(12, 0.5, 99)
        assert ALL_COLORINGS[name](g) == ALL_COLORINGS[name](g)


class TestCoverFromColoring:
    def test_demo_cover_groups(self, demo_hamiltonian, demo_graph):
        comp = demo_graph.complement()
        for name, fn in ALL_COLORINGS.items():
            cover = cover_from_coloring(fn(comp))
            assert set(cover) == DEMO_MINIMUM_GROUPS, name

    def test_single_vertex(self):
        assert cover_from_coloring([0b1]) == (0b1,)

    def test_groups_sorted_by_min_member(self):
        assert cover_from_coloring([0b100, 0b010, 0b001]) == (0b001, 0b010, 0b100)

    @pytest.mark.parametrize("classes, message", [
        ([0b111, 0], "group 0 is empty"),
        ([0b1111], "references unknown vertex 3"),
        ([0b011, 0b110], "vertex 1 appears in more than one group"),
        ([0b011], "vertex 2 is not covered"),
    ])
    def test_malformed_classes_fail_validation(self, classes, message):
        # Every pair is an edge, so only the partition checks can fail.
        g = complete_graph(3)
        with pytest.raises(InvalidCoverError, match=message):
            validate_cover(g, cover_from_coloring(classes))

    def test_random_proper_colorings_make_valid_covers(self):
        rng = random.Random(4242)
        for trial in range(30):
            n = rng.randint(1, 10)
            g = oracles.random_gnp(n, 0.5, 1000 + trial)
            comp = g.complement()
            coloring = dsatur_coloring(comp)
            cover = cover_from_coloring(coloring)
            assert sorted(v for group in cover for v in oracles.members(group)) == list(range(n))
            for group in cover:
                assert oracles.is_clique(g, group)


class TestSoundness:
    def test_never_beats_exact_minimum(self):
        rng = random.Random(31337)
        for trial in range(60):
            n = rng.randint(2, 10)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 5000 + trial)
            optimum = len(oracles.exact_mcc(g))
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                assert len(cover) >= optimum, (heuristic, trial)

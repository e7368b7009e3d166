import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qwcover import (
    MAX_GRAPH_VERTICES,
    CapacityError,
    Hamiltonian,
    HamiltonianTerm,
    PauliWord,
    TermGraph,
    build_qwc_graph,
    format_hamiltonian,
    iter_bits,
    parse_hamiltonian,
    qubit_wise_commute,
)
import qwcover.graph
from qwcover.graph import _CHUNK_BYTES, _planes
from qwcover.pauli import MAX_QUBIT_INDEX, PauliAxis

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
        assert oracles.edge_set(demo_graph) == DEMO_EDGES
        assert oracles.is_symmetric(demo_graph)

    def test_edges_match_pairwise_commutation(self, demo_hamiltonian, demo_graph):
        words = demo_hamiltonian.words()
        for i, j in itertools.combinations(range(len(words)), 2):
            assert bool(demo_graph.rows[i] >> j & 1) == qubit_wise_commute(words[i], words[j])

    def test_every_edge_also_fully_commutes(self, demo_hamiltonian, demo_graph):
        words = demo_hamiltonian.words()
        for i, j in oracles.edge_set(demo_graph):
            assert oracles.fully_commute(words[i], words[j])

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
        assert oracles.edge_set(g) == {(0, 1), (0, 2)}

    def test_many_qubits_multilane(self):
        # words past qubit 63, beyond one machine word, still compare correctly
        h = parse_hamiltonian("1.0 [Z0 Z100]\n1.0 [Z100]\n1.0 [X100]")
        g = build_qwc_graph(h)
        assert oracles.edge_set(g) == {(0, 1)}

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(qwcover.graph, "MAX_GRAPH_VERTICES", 4)
        h = parse_hamiltonian("\n".join(f"1.0 [Z{i}]" for i in range(5)))
        with pytest.raises(CapacityError, match="cap"):
            build_qwc_graph(h)

    def test_random_hamiltonian_edges_match_definition(self):
        rng = random.Random(7)
        h = oracles.random_hamiltonian(rng, 25, 5)
        g = build_qwc_graph(h)
        assert oracles.is_symmetric(g)
        words = h.words()
        for i, j in itertools.combinations(range(25), 2):
            assert bool(g.rows[i] >> j & 1) == qubit_wise_commute(words[i], words[j])

    @pytest.mark.parametrize("n_qubits", [1, 2, 7, 63, 64, 65, 100, 128, 130])
    def test_matches_pairwise_oracle_across_qubit_counts(self, n_qubits):
        # Light words keep QWC pairs common on wide registers; the identity
        # word is adjacent to everything.
        rng = random.Random(n_qubits)
        raw = [PauliWord()]
        raw += [oracles.random_word(rng, n_qubits, max_weight=3) for _ in range(40)]
        raw += [oracles.random_word(rng, n_qubits) for _ in range(20)]
        terms = [HamiltonianTerm(1.0, word) for word in dict.fromkeys(raw)]
        h = Hamiltonian(tuple(terms), n_qubits)
        g = build_qwc_graph(h)
        assert oracles.is_symmetric(g)
        words = h.words()
        assert words[0] == PauliWord()
        for i, j in itertools.combinations(range(len(words)), 2):
            assert bool(g.rows[i] >> j & 1) == qubit_wise_commute(words[i], words[j]), (i, j)
        assert 0 < g.edge_count < len(words) * (len(words) - 1) // 2

    def test_words_on_the_first_and_last_qubit_match_pairwise_oracle(self):
        # Every word touches qubit 0 or MAX_QUBIT_INDEX, so the planes span
        # the whole qubit range while almost every byte column is empty.
        rng = random.Random(65535)
        axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
        words = {PauliWord(), PauliWord({0: "X", MAX_QUBIT_INDEX: "Z"})}
        while len(words) < 80:
            qubits = rng.sample([0, MAX_QUBIT_INDEX], rng.randint(1, 2))
            qubits += rng.sample(range(MAX_QUBIT_INDEX + 1), rng.randint(0, 2))
            words.add(PauliWord({q: rng.choice(axes) for q in qubits}))
        terms = [HamiltonianTerm(1.0, word) for word in sorted(words, key=str)]
        h = Hamiltonian(tuple(terms), MAX_QUBIT_INDEX + 1)
        g = build_qwc_graph(h)
        assert oracles.is_symmetric(g)
        for i, j in itertools.combinations(range(g.n), 2):
            commute = qubit_wise_commute(terms[i].word, terms[j].word)
            assert bool(g.rows[i] >> j & 1) == commute, (i, j)
        assert 0 < g.edge_count < g.n * (g.n - 1) // 2

    def test_wide_sparse_words_transpose_only_their_occupied_qubits(self, monkeypatch):
        # Words on qubits 0 and MAX_QUBIT_INDEX plus two random qubits give
        # the rows of the same words relabelled onto their occupied qubits,
        # and the transpose sees only those qubits.
        rng = random.Random(9)
        words = {}
        while len(words) < 1000:
            qubits = [0, MAX_QUBIT_INDEX, *rng.sample(range(1, MAX_QUBIT_INDEX), 2)]
            words[PauliWord({q: rng.choice("XYZ") for q in qubits})] = None
        occupied = sorted({q for word in words for q, _ in word})
        rank = {q: r for r, q in enumerate(occupied)}
        compacted = [PauliWord({rank[q]: axis for q, axis in word}) for word in words]
        widths = []

        def spy(values, width=None):
            widths.append(width)
            return _planes(values, width)

        monkeypatch.setattr(qwcover.graph, "_planes", spy)
        wide = build_qwc_graph(
            Hamiltonian(tuple(HamiltonianTerm(1.0, w) for w in words), MAX_QUBIT_INDEX + 1)
        )
        assert widths == [2 * len(occupied)]
        narrow = build_qwc_graph(
            Hamiltonian(tuple(HamiltonianTerm(1.0, w) for w in compacted), len(occupied))
        )
        assert wide.rows == narrow.rows


@st.composite
def plane_inputs(draw):
    """Values below ``2**width`` for up to 70 rows and 150 bits."""
    width = draw(st.integers(0, 150))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=70))
    return values, width


class TestPlanes:
    @settings(max_examples=300, deadline=None)
    @given(plane_inputs())
    @example(([], 0))
    @example(([], 5))  # no rows: every plane empty
    @example(([0, 0, 0], 0))  # width 0
    @example(([0b1011], 4))  # one row
    @example(([1, 0, 0, 0, 0, 0, 0, 0, 1], 9))  # rows and width past a multiple of 8
    @example(([(1 << 13) - 1] * 13, 13))
    def test_matches_per_bit_definition(self, case):
        values, width = case
        assert _planes(values, width) == oracles.per_bit_planes(values, width)

    @pytest.mark.parametrize("n", [1, 13, 300])
    def test_width_spanning_several_column_chunks(self, n):
        # A chunk holds about _CHUNK_BYTES of the n-row matrix, rows padded
        # to a multiple of 8: this width takes two chunks and part of a third.
        height = -(-n // 8) * 8
        width = 2 * 8 * max(1, _CHUNK_BYTES // height) + 21
        rng = random.Random(n)
        values = [rng.getrandbits(width) | 1 << (width - 1) for _ in range(n)]
        assert _planes(values, width) == oracles.per_bit_planes(values, width)
        # Empty byte columns between occupied ones.
        keep = int.from_bytes(b"\xff\0\0" * width, "little") & ((1 << width) - 1)
        sparse = [value & keep for value in values]
        assert _planes(sparse, width) == oracles.per_bit_planes(sparse, width)


class TestTermGraph:
    def test_cap_holds_rows_and_complement_in_one_gib(self):
        # n rows of n bits, twice over with the complement, in bytes.
        assert 2 * MAX_GRAPH_VERTICES * MAX_GRAPH_VERTICES // 8 == 1 << 30

    def test_constructor_rejects_more_vertices_than_the_cap(self):
        with pytest.raises(CapacityError, match="cap"):
            TermGraph([0] * (MAX_GRAPH_VERTICES + 1))

    def test_from_edges_and_degrees(self):
        g = oracles.graph_from_edges(4, [(0, 1), (1, 2)])
        assert g.degrees == (1, 2, 1, 0)
        assert g.edge_count == 2
        assert oracles.is_symmetric(g)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TermGraph([0, 0b10])

    def test_row_outside_range_rejected_before_self_loop(self):
        # -1 has every bit set, its own included: the range is what is wrong.
        with pytest.raises(ValueError, match=r"row 0 references vertices outside 0\.\.0"):
            TermGraph([-1])
        with pytest.raises(ValueError, match=r"row 1 references vertices outside 0\.\.1"):
            TermGraph([0, 0b110])

    @pytest.mark.parametrize("edge", [(1, 3), (0, -1), (2, 0), (-2, 1)])
    def test_from_edges_rejects_endpoint_outside_range(self, edge):
        message = rf"edge \({edge[0]}, {edge[1]}\) has an endpoint outside 0\.\.1"
        with pytest.raises(ValueError, match=message):
            oracles.graph_from_edges(2, [(0, 1), edge])

    def test_degree_cache_matches_rows(self):
        for seed in range(5):
            g = oracles.random_gnp(12, 0.4, seed)
            assert g.degrees == tuple(row.bit_count() for row in g.rows)

    def test_degree_planes_slice_the_degrees(self):
        for seed in range(5):
            g = oracles.random_gnp(12, 0.4, seed)
            planes = g.degree_planes
            assert planes is g.degree_planes
            assert planes[-1]  # no empty top plane
            assert [
                sum((plane >> u & 1) << j for j, plane in enumerate(planes)) for u in range(g.n)
            ] == list(g.degrees)
        assert TermGraph([0, 0]).degree_planes == ()


class TestComplement:
    def test_complement_of_clique_is_edgeless(self):
        clique = oracles.graph_from_edges(4, itertools.combinations(range(4), 2))
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
            assert oracles.edge_set(g) | oracles.edge_set(comp) == all_pairs
            assert not oracles.edge_set(g) & oracles.edge_set(comp)

    def test_built_once(self):
        g = oracles.random_gnp(10, 0.5, 3)
        assert g.complement() is g.complement()

    def test_demo_complement_is_two_colorable(self, demo_graph):
        assert oracles.chromatic_number_dp(demo_graph.complement()) == 2


def built_graphs():
    """Texts of every golden input and of seeded random inputs, the empty
    and the identity-only Hamiltonian included."""
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.ham")):
        yield pytest.param(path.read_text(), id=path.stem)
    for seed in range(12):
        rng = random.Random(seed)
        h = oracles.random_hamiltonian(rng, rng.randint(1, 150), rng.randint(4, 12), max_weight=4)
        yield pytest.param(format_hamiltonian(h), id=f"random-{seed}")
    yield pytest.param("# qubits: 2\n", id="empty")
    yield pytest.param("1.0 []\n", id="identity")


class TestBuiltRowsPassTheChecks:
    """build_qwc_graph and complement lay out their graphs without the
    constructor's range and self-loop checks; their rows must pass them."""

    @pytest.mark.parametrize("text", built_graphs())
    def test_constructor_accepts_built_and_complement_rows(self, text):
        g = build_qwc_graph(parse_hamiltonian(text))
        for built in (g, g.complement()):
            assert TermGraph(built.rows) == built
            assert oracles.is_symmetric(built)



class TestIterBits:
    def test_negative_mask_rejected(self):
        # -1 has every bit set; yielding them would never end.
        with pytest.raises(ValueError, match="negative mask"):
            next(iter_bits(-1))

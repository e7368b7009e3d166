import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qwcover import (
    BasisConflictError,
    CapacityError,
    Heuristic,
    InvalidCoverError,
    PauliAxis,
    basis_of_group,
    build_qwc_graph,
    compute_stats,
    parse_hamiltonian,
    solve_mcc,
    validate_cover,
)
from qwcover.cover import _check_partition, _population_std

GOLDEN = Path(__file__).resolve().parent / "golden"


def complete_graph(n):
    return oracles.graph_from_edges(n, itertools.combinations(range(n), 2))


class TestValidateCover:
    def test_demo_minimum_cover_valid(self, demo_hamiltonian, demo_graph):
        cover = (0b0001111, 0b1110000)
        validate_cover(demo_graph, cover)
        oracles.assert_qwc_partition(demo_hamiltonian, cover)

    def test_three_group_cover_valid(self, demo_hamiltonian, demo_graph):
        from conftest import DEMO_THREE_GROUP_COVER

        cover = DEMO_THREE_GROUP_COVER
        validate_cover(demo_graph, cover)
        oracles.assert_qwc_partition(demo_hamiltonian, cover)
        assert len(cover) == 3

    def test_overlap_rejected(self, demo_graph):
        cover = (0b0001111, 0b1111000)  # {0, 1, 2, 3}, {3, 4, 5, 6}
        with pytest.raises(InvalidCoverError, match="vertex 3 appears in more than one group"):
            validate_cover(demo_graph, cover)

    def test_missing_vertex_rejected(self, demo_graph):
        cover = (0b0001111, 0b0110000)  # {0, 1, 2, 3}, {4, 5}
        with pytest.raises(InvalidCoverError, match="vertex 6 is not covered"):
            validate_cover(demo_graph, cover)

    def test_non_clique_rejected(self, demo_graph):
        cover = (0b0011111, 0b1100000)  # {0, 1, 2, 3, 4}, {5, 6}
        with pytest.raises(InvalidCoverError, match=r"group 0 is not a clique: \(2, 4\)"):
            validate_cover(demo_graph, cover)

    # The demo graph has vertices 0..6, so 1 << 7 is the first unknown one.
    @pytest.mark.parametrize("cover, message", [
        ((0b1111, -1), "group 1 references unknown vertex 7"),
        ((-0b10000, 0b1111), "group 0 references unknown vertex 7"),
        ((0b1111, 0, 0b1110000), "group 1 is empty"),
        ((0b1111, 0b1110000, 1 << 7), "group 2 references unknown vertex 7"),
        ((0b1111, 0b1110000 | 1 << 9), "group 1 references unknown vertex 9"),
        # vertex sets are not masks
        ((frozenset({0, 1, 2, 3}), frozenset({4, 5, 6})), "group 0 is not a vertex bitmask"),
        # True == 1, the mask of vertex 0, but a bool is not a bitmask
        ((True, 0b1111110), "group 0 is not a vertex bitmask: True"),
        ((0b1111110, True), "group 1 is not a vertex bitmask: True"),
        ((0b1111111, False), "group 1 is not a vertex bitmask: False"),
    ])
    def test_malformed_group_rejected(self, demo_graph, cover, message):
        with pytest.raises(InvalidCoverError, match=message):
            validate_cover(demo_graph, cover)

    def test_word_level_check_catches_non_qwc_group(self, demo_hamiltonian):
        # Y0 X2 X3 joins the nested-Z words: qubit 0 needs both Z and Y.
        cover = (0b0101111, 0b1010000)
        with pytest.raises(BasisConflictError, match="qubit 0 would need both"):
            for group in cover:
                basis_of_group(demo_hamiltonian, group)
        with pytest.raises(AssertionError, match="do not qubit-wise commute"):
            oracles.assert_qwc_partition(demo_hamiltonian, cover)


def _random_cover(rng, n):
    """A random partition of ``0..n-1`` into group masks, in random group
    order, possibly with a fault: an empty, overlapping, out-of-range or
    negative group, or an uncovered vertex."""
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    groups = [sum(1 << v for v in range(n) if labels[v] == label) for label in set(labels)]
    rng.shuffle(groups)
    fault = rng.choice(["none"] * 6 + ["empty", "overlap", "out-of-range", "negative", "uncovered"])
    at = rng.randrange(len(groups))
    if fault == "empty":
        groups.insert(at, 0)
    elif fault == "overlap":
        groups[at] |= 1 << rng.randrange(n)
    elif fault == "out-of-range":
        groups[at] |= 1 << rng.randint(n, n + 3)
    elif fault == "negative":
        groups[at] = -groups[at]
    elif fault == "uncovered" and groups[at].bit_count() > 1:
        groups[at] &= groups[at] - 1
    return tuple(groups)


class TestPartitionAndWordCheck:
    """``qwcover run`` checks a cover's partition with masks and each group
    from its words, and not against the graph: on a QWC graph that accepts
    exactly the covers :func:`validate_cover` accepts, and rejects the
    others at the same group."""

    def test_accepts_what_validate_cover_accepts(self):
        rng = random.Random(20)
        outcomes = Counter()
        for trial in range(600):
            n_qubits = rng.randint(1, 4)
            h = oracles.random_hamiltonian(rng, rng.randint(1, min(10, 4 ** n_qubits)), n_qubits)
            g = build_qwc_graph(h)
            cover = _random_cover(rng, h.n_terms)
            try:
                validate_cover(g, cover)
                graph_error = None
            except InvalidCoverError as exc:
                graph_error = str(exc)
            try:
                _check_partition(h.n_terms, cover)
            except InvalidCoverError as exc:
                assert str(exc) == graph_error, (trial, cover)
                outcomes["partition"] += 1
                continue
            for index, group in enumerate(cover):
                try:
                    basis_of_group(h, group)
                except BasisConflictError:
                    assert graph_error is not None, (trial, cover)
                    assert graph_error.startswith(f"group {index} is not a clique"), (trial, cover)
                    outcomes["words"] += 1
                    break
            else:
                assert graph_error is None, (trial, cover)
                outcomes["valid"] += 1
        # Every side of the equivalence is exercised.
        assert min(outcomes["partition"], outcomes["words"], outcomes["valid"]) >= 50, outcomes


def _basis_outcome(derive, h, group):
    """The basis as a list of items (so key order counts), or the raised
    exception's type and message."""
    try:
        return list(derive(h, group).items())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


@st.composite
def hamiltonians_and_groups(draw):
    """A random Hamiltonian (identity word possible) and a group mask: a
    group of one heuristic's cover (QWC), any non-empty mask of its terms
    (often not QWC), a mask with a bit past its last term, or a negative
    mask."""
    n_qubits = draw(st.integers(1, 6))
    n_terms = draw(st.integers(1, min(12, 4 ** n_qubits)))
    h = oracles.random_hamiltonian(random.Random(draw(st.integers(0, 2 ** 32))), n_terms, n_qubits)
    kind = draw(st.sampled_from(["qwc", "any", "out-of-range", "negative"]))
    if kind == "qwc":
        group = draw(st.sampled_from(solve_mcc(build_qwc_graph(h), draw(st.sampled_from(list(Heuristic))))))
    elif kind == "any":
        group = draw(st.integers(1, (1 << n_terms) - 1))
    elif kind == "out-of-range":
        group = draw(st.integers(1 << n_terms, 1 << (n_terms + 6)))
    else:
        group = draw(st.integers(-(1 << (n_terms + 6)), -1))
    return h, group


class TestBasisOfGroup:
    @settings(max_examples=400, deadline=None)
    @given(case=hamiltonians_and_groups())
    @example(case=(parse_hamiltonian("1.0 []\n1.0 [Z0 X2]\n1.0 [X2]\n"), 0b111))
    @example(case=(parse_hamiltonian("1.0 []\n1.0 [Y1 Z3]\n1.0 [X1 X3]\n"), 0b111))
    @example(case=(parse_hamiltonian("1.0 [Z0]\n1.0 [X0]\n"), -2))
    @example(case=(parse_hamiltonian("1.0 [Z0]\n1.0 [X0]\n"), 0b111))
    def test_matches_factor_scan(self, case):
        h, group = case
        assert _basis_outcome(basis_of_group, h, group) == _basis_outcome(
            oracles.scan_basis_of_group, h, group
        )

    def test_nested_z_group(self, demo_hamiltonian):
        basis = basis_of_group(demo_hamiltonian, 0b0001111)
        assert basis == {q: PauliAxis.Z for q in range(4)}

    def test_x_tail_group(self, demo_hamiltonian):
        basis = basis_of_group(demo_hamiltonian, 0b1110000)
        assert basis == {
            0: PauliAxis.Y, 1: PauliAxis.Y, 2: PauliAxis.X, 3: PauliAxis.X,
        }

    def test_identity_singleton_empty_assignment(self):
        h = parse_hamiltonian("1.0 []")
        assert basis_of_group(h, 0b1) == {}

    def test_untouched_qubits_unassigned(self, demo_hamiltonian):
        assert basis_of_group(demo_hamiltonian, 1 << 4) == {2: PauliAxis.X, 3: PauliAxis.X}

    def test_conflict_raises(self, demo_hamiltonian):
        with pytest.raises(BasisConflictError, match="qubit 0"):
            basis_of_group(demo_hamiltonian, 0b100001)  # Z0 vs Y0

    def test_negative_group_rejected(self, demo_hamiltonian):
        with pytest.raises(ValueError, match="negative mask"):
            basis_of_group(demo_hamiltonian, -1)

    @pytest.mark.parametrize("group", [True, False])
    def test_bool_group_rejected(self, demo_hamiltonian, group):
        # As in validate_cover: True is not the group of term 0.
        with pytest.raises(TypeError, match=str(group)):
            basis_of_group(demo_hamiltonian, group)

    def test_unknown_term_named(self):
        h = parse_hamiltonian("1.0 [Z0]\n1.0 [X1]\n")
        with pytest.raises(ValueError, match="unknown term 5$"):
            basis_of_group(h, 1 << 5)
        with pytest.raises(ValueError, match="unknown term 2$"):
            basis_of_group(h, 0b1011101)

    def test_every_heuristic_group_is_measurable(self):
        rng = random.Random(123)
        for trial in range(15):
            h = oracles.random_hamiltonian(rng, rng.randint(1, 12), 5)
            g = build_qwc_graph(h)
            for heuristic in Heuristic:
                cover = solve_mcc(g, heuristic)
                for group in cover:
                    basis_of_group(h, group)  # must not raise

    def test_ordered_by_qubit(self, demo_hamiltonian):
        # X2 X3 comes first, then Y0 X2 X3: qubit 0 is met last but keyed first.
        assert list(basis_of_group(demo_hamiltonian, 0b110000)) == [0, 2, 3]

    @pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.ham")))
    def test_every_golden_group_ordered_by_qubit(self, name):
        # Key order is the order the reports print, so it is part of their bytes.
        h = parse_hamiltonian((GOLDEN / name).read_text())
        g = build_qwc_graph(h)
        for heuristic in Heuristic:
            for group in solve_mcc(g, heuristic):
                basis = basis_of_group(h, group)
                assert list(basis) == sorted(basis)


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
        cover = tuple(1 << v for v in range(5))
        stats = compute_stats(cover)
        assert stats.max_size == 1
        assert stats.size_std == 0.0
        assert stats.total_terms == 5

    def test_single_group(self):
        cover = (0b11111111,)
        stats = compute_stats(cover)
        assert stats.n_groups == 1
        assert stats.size_std == 0.0

    def test_size_std_correctly_rounded_pinned(self):
        # A float mean-and-deviations pstdev (CPython 3.10) prints
        # 3.091206165165235 here; the correctly rounded value differs.
        cover = (0b1, 0b110, 0b11111111000)  # sizes 1, 2, 8
        assert compute_stats(cover).size_std == 3.0912061651652345

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=80))
    @example([7, 7, 7])
    @example([1, 2, 8])
    @example([4, 3])
    def test_size_std_correctly_rounded(self, sizes):
        n = len(sizes)
        variance = Fraction(n * sum(s * s for s in sizes) - sum(sizes) ** 2, n * n)
        result = _population_std(sizes)
        # The square of each half-ULP midpoint around the result brackets
        # the exact variance; below 0.0 the midpoint counts as 0.
        low = max((Fraction(result) + Fraction(math.nextafter(result, -math.inf))) / 2, 0)
        high = (Fraction(result) + Fraction(math.nextafter(result, math.inf))) / 2
        assert low * low <= variance <= high * high

    def test_empty_cover(self):
        stats = compute_stats(())
        assert stats == compute_stats(())
        assert stats.n_groups == 0


class TestExactMcc:
    def test_demo_graph_minimum_two(self, demo_graph):
        cover = oracles.exact_mcc(demo_graph)
        assert len(cover) == 2
        validate_cover(demo_graph, cover)

    def test_complete_graph_one_group(self):
        assert oracles.exact_mcc(complete_graph(6)) == (0b111111,)

    def test_edgeless_graph_n_groups(self):
        assert len(oracles.exact_mcc(oracles.graph_from_edges(5, []))) == 5

    def test_vertex_cap(self):
        g = oracles.graph_from_edges(oracles.EXACT_MCC_MAX_VERTICES + 1, [])
        with pytest.raises(CapacityError, match="capped"):
            oracles.exact_mcc(g)

    def test_matches_subset_dp_oracle(self):
        rng = random.Random(6)
        for trial in range(40):
            n = rng.randint(1, 8)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 2000 + trial)
            cover = oracles.exact_mcc(g)
            validate_cover(g, cover)
            assert len(cover) == oracles.min_clique_cover_size(g), trial

    def test_equals_chromatic_number_of_complement(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(1, 8)
            g = oracles.random_gnp(n, rng.uniform(0.2, 0.8), 2500 + trial)
            assert len(oracles.exact_mcc(g)) == oracles.chromatic_number_dp(g.complement())

    def test_minimum_coloring_proper_and_optimal(self):
        rng = random.Random(8)
        for trial in range(30):
            n = rng.randint(1, 9)
            g = oracles.random_gnp(n, rng.uniform(0.1, 0.9), 3000 + trial)
            coloring = oracles.minimum_coloring(g)
            assert oracles.is_proper_coloring(g, coloring)
            assert len(coloring) == oracles.chromatic_number_dp(g), trial

    def test_minimum_coloring_beats_first_fit(self):
        # A crown graph labelled u0 v0 u1 v1 ...: first fit in index order
        # needs four colors, its bipartition two; beside a 5-cycle the
        # minimum is three.  A color search that starts above the minimum
        # or skips a count returns a worse, first-fit-like coloring.
        crown = [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j]
        cycle = [(8 + i, 8 + (i + 1) % 5) for i in range(5)]
        for n, edges, chromatic in ((8, crown, 2), (13, crown + cycle, 3)):
            g = oracles.graph_from_edges(n, edges)
            coloring = oracles.minimum_coloring(g)
            assert oracles.is_proper_coloring(g, coloring)
            assert len(coloring) == chromatic, n


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
                indices = sorted(v for group in cover for v in oracles.members(group))
                assert indices == list(range(h.n_terms)), heuristic

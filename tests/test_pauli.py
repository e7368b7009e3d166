import importlib
import itertools
import io
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qwcover import (
    COEFFICIENT_PRUNE_THRESHOLD,
    MAX_QUBIT_INDEX,
    Hamiltonian,
    HamiltonianTerm,
    ParseError,
    PauliAxis,
    PauliWord,
    format_hamiltonian,
    parse_hamiltonian,
    qubit_wise_commute,
)

W = PauliWord.from_string
TESTS = Path(__file__).resolve().parent


def axes():
    return st.sampled_from([PauliAxis.X, PauliAxis.Y, PauliAxis.Z])


def factor_maps(max_qubit=5):
    return st.dictionaries(st.integers(0, max_qubit), axes(), max_size=max_qubit + 1)


def words(max_qubit=5):
    return st.builds(PauliWord, factor_maps(max_qubit))


class TestPauliWord:
    def test_identity_entries_dropped(self):
        assert PauliWord({0: PauliAxis.I, 2: PauliAxis.X}) == PauliWord({2: "X"})
        assert PauliWord([(0, "I"), (2, "X")]) == PauliWord({2: "X"})
        assert PauliWord({0: "I"}) == PauliWord()

    def test_empty_word_is_identity(self):
        word = PauliWord()
        assert word.x_mask == word.z_mask == 0
        assert word.max_qubit is None
        assert str(word) == ""

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PauliWord([(-1, PauliAxis.X)])

    def test_index_above_limit_rejected(self):
        assert PauliWord({MAX_QUBIT_INDEX: "Z"}).max_qubit == MAX_QUBIT_INDEX
        with pytest.raises(ValueError, match="limit"):
            PauliWord({MAX_QUBIT_INDEX + 1: "Z"})

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            PauliWord([(0, "X"), (0, "Z")])

    @pytest.mark.parametrize("factors", [
        [(0, "X"), (0, "I")],
        [(0, "I"), (0, "X")],
        [(0, PauliAxis.I), (0, PauliAxis.I)],
    ])
    def test_identity_entry_lists_its_qubit(self, factors):
        with pytest.raises(ValueError, match="more than once"):
            PauliWord(factors)

    # True is an int equal to 1, but not a qubit index.
    @pytest.mark.parametrize("qubit", [1.7, 2.0, "3", True, False])
    def test_non_integer_index_rejected(self, qubit):
        with pytest.raises(TypeError):
            PauliWord({qubit: "X"})

    # Iterating a string gives its characters, and "" gives no factor at
    # all, which would be the identity.
    @pytest.mark.parametrize("text", ["Z0", "X0 Y1", ""])
    def test_string_rejected_for_from_string(self, text):
        with pytest.raises(TypeError, match="PauliWord.from_string"):
            PauliWord(text)

    def test_factors_sorted_and_round_trip(self):
        word = W("Z3 X0 Y7")
        assert str(word) == "X0 Z3 Y7"
        assert PauliWord.from_string(str(word)) == word

    def test_from_string_uses_the_file_grammar(self):
        assert W("x0 z12") == PauliWord({0: "X", 12: "Z"})
        with pytest.raises(ParseError, match="line 1, column 4: bad Pauli factor 'Q1'"):
            W("Z0 Q1")
        with pytest.raises(ParseError, match="negative qubit index"):
            W("X-1")
        with pytest.raises(ParseError, match="more than one factor"):
            W("X0 Z0")
        with pytest.raises(ParseError, match="limit"):
            W(f"Z{MAX_QUBIT_INDEX + 1}")

    def test_masks(self):
        word = W("X0 Y1 Z2")
        assert word.x_mask == 0b011
        assert word.z_mask == 0b110
        assert word.support_mask == 0b111

    @given(factor_maps(), st.sets(st.integers(0, 7)))
    @example({0: PauliAxis.Y, 2: PauliAxis.X}, {1})
    def test_parsed_and_constructed_words_are_one_key(self, factors, identities):
        # Identity entries on the drawn qubits that carry no axis; the
        # reference word reads its factors back from sorted items, not masks.
        factors = {**dict.fromkeys(identities, PauliAxis.I), **factors}
        word = PauliWord(factors)
        parsed = PauliWord.from_string(str(word))
        reference = oracles.ReferencePauliWord(factors)

        def view(w):
            return tuple(w), str(w), w.max_qubit, hash(w)

        assert view(word) == view(parsed) == view(reference)
        assert tuple(reference) == tuple(sorted(
            (q, axis) for q, axis in factors.items() if axis is not PauliAxis.I
        ))
        for a, b in itertools.permutations((word, parsed, reference), 2):
            assert a == b
        keys = {word: "constructed"}
        keys[parsed] = "parsed"
        keys[reference] = "reference"
        assert keys == {word: "reference"}


class TestCommutation:
    def test_disjoint_supports_are_qwc(self):
        # X on one qubit, Y on another: factors commute everywhere.
        assert qubit_wise_commute(W("X0"), W("Y1"))

    def test_equal_axes_are_qwc(self):
        assert qubit_wise_commute(W("Z0"), W("Z0 Z1"))

    def test_xx_yy_not_qwc_but_commuting(self):
        a, b = W("X0 X1"), W("Y0 Y1")
        assert not qubit_wise_commute(a, b)
        assert oracles.fully_commute(a, b)

    def test_identity_qwc_with_everything(self):
        assert qubit_wise_commute(PauliWord(), W("X0 Y3 Z5"))

    def test_single_qubit_anticommuting_pair(self):
        assert not oracles.fully_commute(W("X0"), W("Z0"))

    def test_two_differing_positions_commute(self):
        # Verified against the dense-matrix oracle below as well.
        a, b = W("X0 Z1"), W("Z0 X1")
        assert oracles.fully_commute(a, b)
        assert oracles.dense_fully_commute(a, b, 2)

    def test_qwc_not_transitive(self):
        a, b, c = W("X0"), W("Y1"), W("Z0")
        assert qubit_wise_commute(a, b)
        assert qubit_wise_commute(b, c)
        assert not qubit_wise_commute(a, c)

    @given(words(), words())
    def test_symmetry(self, a, b):
        assert qubit_wise_commute(a, b) == qubit_wise_commute(b, a)
        assert oracles.fully_commute(a, b) == oracles.fully_commute(b, a)

    @given(words())
    def test_reflexivity(self, a):
        assert qubit_wise_commute(a, a)
        assert oracles.fully_commute(a, a)

    @given(words(), words())
    def test_qwc_implies_commute(self, a, b):
        assert oracles.qwc_implies_commute(a, b)

    def test_dense_oracle_reads_each_qubits_axis(self):
        # Commutation cannot tell X, Y and Z apart under a relabelling, so
        # pin the dense oracle's decode of the masks to the matrices.
        m = oracles.PAULI_MATRICES
        x, y, i, z = (m[axis] for axis in (PauliAxis.X, PauliAxis.Y, PauliAxis.I, PauliAxis.Z))
        expected = np.kron(np.kron(np.kron(x, y), i), z)
        assert np.array_equal(oracles.word_matrix(W("X0 Y1 Z3"), 4), expected)

    @settings(max_examples=30, deadline=None)
    @given(words(max_qubit=3), words(max_qubit=3))
    def test_matches_dense_matrix_oracle(self, a, b):
        assert oracles.fully_commute(a, b) == oracles.dense_fully_commute(a, b, 4)
        assert qubit_wise_commute(a, b) == oracles.dense_qubit_wise_commute(a, b, 4)

    def test_random_pairs_qwc_implies_commute(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            a = oracles.random_word(rng, 6)
            b = oracles.random_word(rng, 6)
            assert oracles.qwc_implies_commute(a, b)


class TestRandomHamiltonian:
    @pytest.mark.parametrize("n_qubits, max_weight, distinct", [(3, 2, 37), (2, None, 16), (2, 5, 16)])
    def test_refuses_more_terms_than_distinct_words(self, n_qubits, max_weight, distinct):
        # Drawing until distinct + 1 words are found would never end.
        with pytest.raises(ValueError, match=f"only {distinct} distinct words"):
            oracles.random_hamiltonian(random.Random(1), distinct + 1, n_qubits, max_weight)
        h = oracles.random_hamiltonian(random.Random(1), distinct, n_qubits, max_weight)
        assert len(set(h.words())) == len(h.terms) == distinct


class TestHamiltonianConstruction:
    def test_duplicate_words_rejected_by_strict_constructor(self):
        term = HamiltonianTerm(1.0, W("X0"))
        with pytest.raises(ValueError, match="duplicate"):
            Hamiltonian((term, term), 1)

    @pytest.mark.parametrize("n_qubits", [2.5, 3.0, math.nan, True, False, "3", None])
    def test_non_integer_qubit_count_rejected(self, n_qubits):
        # format_hamiltonian would write "# qubits: 3.0", which the parser
        # reads as a comment
        with pytest.raises(TypeError, match="n_qubits must be an int"):
            Hamiltonian((HamiltonianTerm(1.0, W("X0")),), n_qubits)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError, match="n_qubits"):
            Hamiltonian((HamiltonianTerm(1.0, W("X5")),), 2)

    def test_qubit_count_above_the_parsers_limit_rejected(self):
        # format_hamiltonian would write a header the parser rejects
        limit = MAX_QUBIT_INDEX + 1
        h = Hamiltonian((), limit)
        assert parse_hamiltonian(format_hamiltonian(h)) == h
        for n_qubits in (limit + 1, 70000):
            with pytest.raises(ValueError, match=f"n_qubits must be in 0..{limit}"):
                Hamiltonian((), n_qubits)

    def test_terms_stored_as_a_tuple(self):
        # a generator would be used up by the duplicate check, and a list
        # would leave the frozen Hamiltonian unhashable
        terms = [HamiltonianTerm(1.0, W("X0")), HamiltonianTerm(-0.5, W("Z1"))]
        built = [Hamiltonian(iter(terms), 2), Hamiltonian(terms, 2), Hamiltonian(tuple(terms), 2)]
        for h in built:
            assert h.terms == tuple(terms)
            assert h.n_terms == 2
            assert h == parse_hamiltonian(format_hamiltonian(h))
            assert hash(h) == hash(built[-1])

    @pytest.mark.parametrize("term", [("a",), 1.0, W("X0"), None])
    def test_term_that_is_not_a_hamiltonian_term_rejected(self, term):
        good = HamiltonianTerm(1.0, W("Z0"))
        with pytest.raises(TypeError, match="term 1 must be a HamiltonianTerm"):
            Hamiltonian([good, term], 2)

    @pytest.mark.parametrize("word", ["X0", None, {0: "X"}])
    def test_word_that_is_not_a_pauli_word_rejected(self, word):
        with pytest.raises(TypeError, match="word must be a PauliWord"):
            HamiltonianTerm(1.0, word)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianTerm(math.inf, W("X0"))

    @pytest.mark.parametrize("coefficient", [True, False, 1j, "0.5"])
    def test_bool_and_non_real_coefficients_rejected(self, coefficient):
        # format_hamiltonian would write text the parser rejects
        with pytest.raises(TypeError, match="coefficient must be a real number"):
            HamiltonianTerm(coefficient, W("X0"))

    @pytest.mark.parametrize("coefficient, stored", [
        (Fraction(1, 4), 0.25), (Decimal("-0.5"), -0.5), (3, 3), (0.5, 0.5),
    ])
    def test_real_coefficients_stored_as_float_or_int(self, coefficient, stored):
        term = HamiltonianTerm(coefficient, W("X0"))
        assert type(term.coefficient) is type(stored)
        assert term.coefficient == stored


class TestParsing:
    def test_two_term_example(self):
        h = parse_hamiltonian("1.0 [Z0]\n1.0 [Z0 Z1]")
        assert h.n_terms == 2
        assert h.n_qubits == 2
        assert h.words() == (W("Z0"), W("Z0 Z1"))

    def test_duplicates_merge(self):
        h = parse_hamiltonian("0.5 [X0]\n0.5 [X0]")
        assert h.n_terms == 1
        assert h.terms[0].coefficient == pytest.approx(1.0)

    def test_merge_keeps_first_occurrence_order(self):
        h = parse_hamiltonian("1.0 [Z1]\n1.0 [X0]\n2.0 [Z1]")
        assert h.words() == (W("Z1"), W("X0"))
        assert [term.coefficient for term in h.terms] == [3.0, 1.0]

    def test_identity_word(self):
        h = parse_hamiltonian("1.0 []")
        assert h.n_terms == 1
        assert h.terms[0].word == PauliWord()
        assert h.n_qubits == 0

    def test_identity_word_with_header(self):
        h = parse_hamiltonian("# qubits: 3\n1.0 []")
        assert h.n_qubits == 3

    def test_header_and_comments(self):
        h = parse_hamiltonian("# a comment\n# qubits: 6\n1.0 [Z0]\n")
        assert h.n_qubits == 6

    def test_header_too_small(self):
        with pytest.raises(ParseError, match="header"):
            parse_hamiltonian("# qubits: 1\n1.0 [Z4]")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_hamiltonian("# qubits: 2\n# qubits: 3\n1.0 [Z0]")

    def test_complex_coefficient_truncated(self):
        h = parse_hamiltonian("(0.25,1e-12) [Z0]")
        assert h.terms[0].coefficient == pytest.approx(0.25)

    def test_complex_coefficient_rejected(self):
        for token in ["(0.25,0.5)", "(1,nan)", "(1,-nan)"]:
            with pytest.raises(ParseError, match="non-negligible imaginary part") as excinfo:
                parse_hamiltonian(f"1.0 [Z0]\n  {token} [X0]")
            assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    def test_near_zero_terms_pruned(self):
        h = parse_hamiltonian(f"1.0 [Z0]\n{COEFFICIENT_PRUNE_THRESHOLD / 10!r} [X1]")
        assert h.n_terms == 1
        assert h.n_qubits == 2  # X1 was still seen

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input") as excinfo:
            parse_hamiltonian("# only a comment\n\n")
        assert excinfo.value.line == 2  # the last line read

    def test_malformed_line_reports_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_hamiltonian("1.0 [Z0]\nnot a term\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1

    def test_bad_factor_reports_column(self):
        with pytest.raises(ParseError, match="factor") as excinfo:
            parse_hamiltonian("1.0 [Z0 Q1]")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 9

    def test_byte_order_mark_at_start_dropped(self, tmp_path):
        text = "# qubits: 4\n0.5 [Z0]\n0.25 [X1]\n"
        expected = parse_hamiltonian(text)
        assert expected.n_qubits == 4
        assert parse_hamiltonian("\ufeff" + text) == expected
        path = tmp_path / "bom.ham"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with path.open(encoding="utf-8") as lines:  # text mode keeps the mark
            assert parse_hamiltonian(lines) == expected

    def test_byte_order_mark_at_start_not_counted_in_columns(self):
        with pytest.raises(ParseError, match="factor") as excinfo:
            parse_hamiltonian("\ufeff1.0 [Z0 Q1]")
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)

    @pytest.mark.parametrize("text, line, column", [
        ("1.0 [Z0]\n\ufeff2.0 [X1]\n", 2, 1),
        ("\n\ufeff1.0 [Z0]\n", 2, 1),
        (" \ufeff1.0 [Z0]\n", 1, 2),
        ("1.0 [Z0\ufeff]\n", 1, 6),
        ("1.0 [Z0] \ufeff\n", 1, 10),
        ("# qubits: 1\n\ufeff# qubits: 2\n1.0 [Z0]\n", 2, 1),
        # only one mark is dropped; the second is text at column 1
        ("\ufeff\ufeff1.0 [Z0]\n", 1, 1),
    ])
    def test_byte_order_mark_elsewhere_is_text(self, text, line, column):
        with pytest.raises(ParseError) as excinfo:
            parse_hamiltonian(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_negative_qubit_index(self):
        with pytest.raises(ParseError, match="negative"):
            parse_hamiltonian("1.0 [Z-1]")

    def test_qubit_index_above_limit_allocates_no_mask(self):
        text = f"0.5 [X0 Z{MAX_QUBIT_INDEX + 1}]"
        with pytest.raises(ParseError):
            parse_hamiltonian(text)  # warm the regex and exception paths
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="limit") as excinfo:
                parse_hamiltonian(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)
        # one mask over that many qubits would take (MAX_QUBIT_INDEX + 1) / 8 bytes
        assert peak < (MAX_QUBIT_INDEX + 1) // 8

    @pytest.mark.parametrize("digits", ["9" * 5000, "1" + "0" * 20, str(MAX_QUBIT_INDEX + 1)])
    def test_long_qubit_index_rejected(self, digits):
        with pytest.raises(ParseError, match="limit"):
            parse_hamiltonian(f"1.0 [Z{digits}]")

    def test_qubit_index_at_limit_and_leading_zeros(self):
        assert parse_hamiltonian(f"1.0 [Z{MAX_QUBIT_INDEX}]").n_qubits == MAX_QUBIT_INDEX + 1
        assert parse_hamiltonian("1.0 [Z" + "0" * 5000 + "3]").words() == (W("Z3"),)

    def test_header_above_limit(self):
        with pytest.raises(ParseError, match="limit") as excinfo:
            parse_hamiltonian(f"# qubits: {'9' * 5000}\n1.0 [Z0]")
        assert excinfo.value.line == 1
        assert parse_hamiltonian(f"# qubits: {MAX_QUBIT_INDEX + 1}\n1.0 [Z0]").n_qubits == (
            MAX_QUBIT_INDEX + 1
        )

    def test_duplicate_words_summing_to_infinity(self):
        with pytest.raises(ParseError, match=r"\[Z0\] sum to inf") as excinfo:
            parse_hamiltonian("1e308 [Z0]\n0.5 [X1]\n  1e308 [Z0]\n-1e308 [Z0]")
        assert (excinfo.value.line, excinfo.value.column) == (3, 3)

    def test_duplicate_qubit_in_word(self):
        with pytest.raises(ParseError, match="more than one factor"):
            parse_hamiltonian("1.0 [X0 Z0]")

    def test_bad_coefficient(self):
        with pytest.raises(ParseError, match="coefficient"):
            parse_hamiltonian("abc [Z0]")

    @pytest.mark.parametrize(
        "token", ["1_0", "(1_0,0)", "1e1_0", "\u0663", "\uff11", "1e\u0663", "(\u0663,0)"]
    )
    def test_coefficient_is_an_ascii_decimal_literal(self, token):
        with pytest.raises(ParseError, match="invalid coefficient") as excinfo:
            parse_hamiltonian(f"1.0 [X1]\n  {token} [Z0]")
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    @pytest.mark.parametrize("token", ["inf", "-nan", "(inf,0)"])
    def test_non_finite_coefficient(self, token):
        with pytest.raises(ParseError, match="non-finite coefficient"):
            parse_hamiltonian(f"{token} [Z0]")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="after"):
            parse_hamiltonian("1.0 [Z0] whoops")

    def test_tolerant_whitespace(self):
        h = parse_hamiltonian("  1.0   [ Z0   Z1 ]  \n")
        assert h.words() == (W("Z0 Z1"),)

    def test_accepts_iterable_of_lines(self):
        h = parse_hamiltonian(iter(["1.0 [Z0]\n", "2.0 [X1]\n"]))
        assert h.n_terms == 2

    # Iterating bytes gives integers, not lines.
    @pytest.mark.parametrize("source", [b"1.0 [Z0]\n", bytearray(b"1.0 [Z0]\n"), b""])
    def test_bytes_rejected_with_a_hint_to_decode(self, source):
        with pytest.raises(TypeError, match="decode"):
            parse_hamiltonian(source)

    @pytest.mark.parametrize(
        "make_source, kind",
        [
            (lambda path: path.open("rb"), "bytes"),
            (lambda path: path.read_bytes().splitlines(keepends=True), "bytes"),
            (lambda path: memoryview(path.read_bytes()), "memoryview"),
            (lambda path: memoryview(b""), "memoryview"),
            (lambda path: ["1.0 [Z0]\n", b"2.0 [Z1]\n"], "bytes"),
        ],
        ids=["binary-file", "bytes-lines", "memoryview", "empty-memoryview", "one-bytes-line"],
    )
    def test_binary_line_sources_rejected_with_a_hint_to_decode(self, make_source, kind):
        source = make_source(TESTS / "golden" / "demo.ham")
        try:
            with pytest.raises(TypeError, match=f"source must be text, not {kind}: decode it first"):
                parse_hamiltonian(source)
        finally:
            if isinstance(source, io.IOBase):
                source.close()

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_string_and_file_locate_the_same_line(self, tmp_path, mark, newline):
        text = f"1.0 [Z0]{mark}{newline}2.0 [Q1]{newline}"
        path = tmp_path / "h.ham"
        path.write_text(text, encoding="utf-8", newline="")
        locations = []
        with path.open(encoding="utf-8") as handle:
            for source in (text, handle):
                with pytest.raises(ParseError, match="bad Pauli factor") as excinfo:
                    parse_hamiltonian(source)
                locations.append((excinfo.value.line, excinfo.value.column))
        assert locations == [(2, 6), (2, 6)]

    @pytest.mark.parametrize("digit", ["\u0663", "\u0ced", "\uff13"])
    def test_non_ascii_digit_in_factor_rejected(self, digit):
        with pytest.raises(ParseError, match="bad Pauli factor") as excinfo:
            parse_hamiltonian(f"1.0 [X0 Z{digit}]")
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)

    def test_non_ascii_digit_header_is_a_comment(self):
        assert parse_hamiltonian("# qubits: \u0663\n1.0 [Z0]\n").n_qubits == 1

    def test_header_without_terms_is_the_zero_hamiltonian(self):
        assert parse_hamiltonian("# qubits: 3\n") == Hamiltonian((), 3)
        pruned = parse_hamiltonian("0.0 [Z1]\n")
        assert pruned == Hamiltonian((), 2)
        assert parse_hamiltonian(format_hamiltonian(pruned)) == pruned


class TestRoundTrip:
    def test_demo_round_trip(self, demo_hamiltonian):
        assert parse_hamiltonian(format_hamiltonian(demo_hamiltonian)) == demo_hamiltonian

    @pytest.mark.parametrize("small", [1e-13, -1e-13, 0.0, -0.0])
    def test_round_trip_drops_a_term_below_the_prune_threshold(self, small):
        kept = HamiltonianTerm(0.5, PauliWord({1: "X"}))
        h = Hamiltonian((HamiltonianTerm(small, PauliWord({0: "Z"})), kept), 2)
        assert format_hamiltonian(h) == f"# qubits: 2\n{small!r} [Z0]\n0.5 [X1]\n"
        assert parse_hamiltonian(format_hamiltonian(h)) == Hamiltonian((kept,), 2)

    @pytest.mark.parametrize("coefficient", [
        COEFFICIENT_PRUNE_THRESHOLD, -COEFFICIENT_PRUNE_THRESHOLD, 2.5e-12, 3,
    ])
    def test_round_trip_keeps_a_term_at_the_prune_threshold(self, coefficient):
        h = Hamiltonian((
            HamiltonianTerm(coefficient, PauliWord({0: "Z"})),
            HamiltonianTerm(0.5, PauliWord({1: "X"})),
        ), 2)
        assert parse_hamiltonian(format_hamiltonian(h)) == h

    @pytest.mark.parametrize("scalar, values", [
        ("float64", (-3.25, 0.1)), ("float32", (-3.25, 0.1)), ("int64", (-3, 7)),
    ])
    def test_round_trip_numpy_coefficients(self, scalar, values):
        np = pytest.importorskip("numpy")
        h = Hamiltonian(tuple(
            HamiltonianTerm(getattr(np, scalar)(value), PauliWord({qubit: "Z"}))
            for qubit, value in enumerate(values)
        ), 2)
        assert all(type(term.coefficient) is float for term in h.terms)
        assert parse_hamiltonian(format_hamiltonian(h)) == h

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10).filter(lambda f: abs(f) > 1e-9),
                st.dictionaries(st.integers(0, 7), axes(), max_size=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_random(self, raw_terms):
        h = parse_hamiltonian("\n".join(
            f"{coefficient!r} [{PauliWord(factors)}]" for coefficient, factors in raw_terms
        ))
        assert parse_hamiltonian(format_hamiltonian(h)) == h


# Pieces of the file grammar, valid and not, so that whole valid lines are
# common; with carriage returns, form feeds, Unicode line breaks and
# non-ASCII digits among them.
COEFFICIENTS = [
    "1.0", "-0.25", "3", "1e-13", "1e308", "nan", "(0.5,0)", "(1,2)", "(1,", "x", "",
    "1_0", "(1_0,0)", "\u0663", "\uff11", "1e\u0663",
]
INDICES = [
    "0", "1", "7", "12", "007", "-1", "", "99999", "\u0663", "\uff13",
    "65535", "65536", "0065535", "0065536", "00000", "000000", "1" + "0" * 20,
]
SPACES = ["", " ", "  ", "\t", "\x0c", "\x0b", "\x85", "\u2028"]
BREAKS = ["\n", "\r\n", "\r", "\x0c\n", "\n\n"]
NOISE = list("0123456789.-+e(),[]XYZxyzI# :") + ["qubits", "\r", "\x0c", "\u0663", "\u00b3"]


@st.composite
def hamiltonian_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["term", "term", "header", "comment", "noise"]))
        space = draw(st.sampled_from(SPACES))
        if kind == "term":
            factors = draw(st.lists(
                st.tuples(st.sampled_from("XYZxyzIQ"), st.sampled_from(INDICES)).map("".join),
                max_size=4,
            ))
            coefficient = draw(st.sampled_from(COEFFICIENTS))
            lines.append(f"{space}{coefficient} [{space.join(factors)}]{draw(st.sampled_from(SPACES))}")
        elif kind == "header":
            lines.append(f"#{space}qubits:{space}{draw(st.sampled_from(INDICES))}")
        elif kind == "comment":
            lines.append(f"# {space}note")
        else:
            lines.append("".join(draw(st.lists(st.sampled_from(NOISE), max_size=12))))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, breaks))


class TestParserFuzz:
    @settings(max_examples=500, deadline=None)
    @given(hamiltonian_texts())
    def test_parse_error_in_range_or_round_trip(self, text):
        lines = io.StringIO(text, newline=None).readlines()  # as text mode reads a file
        try:
            h = parse_hamiltonian(text)
        except ParseError as error:
            assert 1 <= error.line <= max(1, len(lines))
            if error.column is not None:
                assert 1 <= error.column <= len(lines[error.line - 1].rstrip("\n"))
        else:
            assert parse_hamiltonian(format_hamiltonian(h)) == h


def layout(h):
    """A Hamiltonian bit for bit: its qubit count, coefficients and masks."""
    return h.n_qubits, [
        (term.coefficient.hex(), tuple(term.word), term.word.x_mask, term.word.z_mask)
        for term in h.terms
    ]


def text_sources(text):
    """``text`` as each kind of source: the string, its lines as a list
    with and without their line breaks, and a text-mode file."""
    lines = io.StringIO(text, newline=None).readlines()
    return {
        "text": text,
        "lines": lines,
        "bare lines": [line.removesuffix("\n") for line in lines],
        "file": io.StringIO(text, newline=None),
    }


def assert_parses_as_reference(text):
    """The parser gives the earlier parser's terms, bit for bit, or its
    error, from every kind of source."""
    try:
        expected = oracles.reference_parse_hamiltonian(text)
    except ParseError as error:
        for kind, source in text_sources(text).items():
            with pytest.raises(ParseError) as excinfo:
                parse_hamiltonian(source)
            got = excinfo.value
            assert (got.reason, got.line, got.column) == (error.reason, error.line, error.column), kind
        return
    for kind, source in text_sources(text).items():
        assert layout(parse_hamiltonian(source)) == layout(expected), kind


@st.composite
def term_texts(draw):
    """Term lines that mostly parse: factors in any order and either case,
    words repeated, coefficients whose sums can overflow."""
    lines = []
    for factors in draw(st.lists(
        st.dictionaries(st.integers(0, 4), st.sampled_from("XYZxyz"), max_size=4), min_size=1, max_size=12
    )):
        pairs = draw(st.permutations(list(factors.items())))
        coefficient = draw(st.sampled_from(["1.0", "-0.5", "(0.25,0)", "0", "1e308"]))
        lines.append(f"{coefficient} [{' '.join(f'{letter}{qubit}' for qubit, letter in pairs)}]")
    return "\n".join(lines)


class TestParserReference:
    @settings(max_examples=500, deadline=None)
    @given(hamiltonian_texts())
    def test_grammar_shaped_texts(self, text):
        assert_parses_as_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(term_texts())
    def test_term_texts(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1.0 [Z0 Q1]\n2.0 [X1 Q1]\n",  # a bad token that recurs on a later line
            "1.0 [Z0 X1]\n2.0 [Y2]\n3.0 [Z0 Z-1]\n4.0 [Z-1]\n",
            "1.0 [Z0 z0]\n",  # two tokens for one qubit
            "1.0 [X1]\n2.0 [Z0  X1 X1]\n",  # the same token twice
            "1.0 [Z65536]\n2.0 [Z65536]\n",
            "1.0 [X0 Z65536 Z65536]\n",
            "1.0 [Z0\u00a0X1]\n2.0 [X1\x1cZ0]\n",
            "1.0 [Z0\u00a0X1\x1cZ0]\n",
            "# 1.0 [Z0]\n  #2.0 [X1]\n3.0 [Y2]\n",  # comments shaped like term lines
        ],
    )
    def test_chosen_texts(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize(
        "lines",
        [
            ["1.0 [Z0\nX1]\n", "2.0 [Y2]"],  # a body across the break
            ["1.0 [Z0]\n2.0 [X1]\n"],
            ["1.0 [Z0] x\n y\n"],
            ["1.0\n[Z0]\n", "# qubits:\n 3\n"],
            ["\n\n", " \n# c\n"],
        ],
    )
    def test_line_source_elements_holding_line_breaks(self, lines):
        # Each element of a line source is one line, whatever it holds.
        try:
            expected = layout(oracles.reference_parse_hamiltonian(lines))
        except ParseError as error:
            with pytest.raises(ParseError) as excinfo:
                parse_hamiltonian(lines)
            got = excinfo.value
            assert (got.reason, got.line, got.column) == (error.reason, error.line, error.column)
        else:
            assert layout(parse_hamiltonian(lines)) == expected

    @pytest.mark.parametrize("path", sorted((TESTS / "golden").glob("*.ham")), ids=lambda p: p.stem)
    def test_golden_inputs(self, path):
        assert_parses_as_reference(path.read_text())

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("\n", 1), ("\n\n", 2), ("# c", 1), ("# c\n", 1), ("\r\n\r\n", 2), ("\ufeff", 1)],
    )
    def test_empty_input_is_located_at_the_last_line(self, text, line):
        # As many lines as a text-mode file has, and line 1 when it has none.
        assert max(len(io.StringIO(text, newline=None).readlines()), 1) == line
        for kind, source in text_sources(text).items():
            with pytest.raises(ParseError, match="empty input") as excinfo:
                parse_hamiltonian(source)
            assert (excinfo.value.line, excinfo.value.column) == (line, None), kind

    @pytest.mark.parametrize("path", sorted((TESTS / "golden").glob("*.ham")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_golden_inputs_with_every_line_ending(self, path, end, tmp_path):
        expected = layout(parse_hamiltonian(path.read_text()))
        lines = [line + end for line in path.read_text().splitlines()]
        text = "".join(lines)
        (tmp_path / "input.ham").write_bytes(text.encode())
        assert layout(parse_hamiltonian(text)) == expected
        assert layout(parse_hamiltonian(lines)) == expected
        for newline in (None, ""):  # translated, and kept at the end of each line
            with open(tmp_path / "input.ham", encoding="utf-8", newline=newline) as file:
                assert layout(parse_hamiltonian(file)) == expected

    def test_benchmark_seed_one_inputs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(TESTS.parent / "perfbench"))
        corpus = importlib.import_module("corpus")
        texts = {r.input.text: None for w in corpus.WORKLOADS for r in corpus.build(w, 1)}
        for text in texts:
            assert_parses_as_reference(text)

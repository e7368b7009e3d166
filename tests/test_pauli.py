import io
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
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


def axes():
    return st.sampled_from([PauliAxis.X, PauliAxis.Y, PauliAxis.Z])


def words(max_qubit=5):
    return st.builds(
        PauliWord,
        st.dictionaries(st.integers(0, max_qubit), axes(), max_size=max_qubit + 1),
    )


class TestPauliWord:
    def test_identity_entries_dropped(self):
        assert PauliWord({0: PauliAxis.I, 2: PauliAxis.X}) == PauliWord({2: "X"})

    def test_empty_word_is_identity(self):
        word = PauliWord()
        assert word.is_identity
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


class TestHamiltonianConstruction:
    def test_duplicate_words_rejected_by_strict_constructor(self):
        term = HamiltonianTerm(1.0, W("X0"))
        with pytest.raises(ValueError, match="duplicate"):
            Hamiltonian((term, term), 1)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError, match="n_qubits"):
            Hamiltonian((HamiltonianTerm(1.0, W("X5")),), 2)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianTerm(math.inf, W("X0"))


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
        assert h.terms[0].word.is_identity
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
        with pytest.raises(ParseError, match="imaginary") as excinfo:
            parse_hamiltonian("1.0 [Z0]\n(0.25,0.5) [X0]")
        assert excinfo.value.line == 2

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
INDICES = ["0", "1", "7", "12", "007", "-1", "", "99999", "\u0663", "\uff13"]
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

"""Pauli words, qubit Hamiltonians, and their commutation tests.

A qubit Hamiltonian is a weighted sum of Pauli words; a Pauli word is a
product of single-qubit X/Y/Z factors (identity on every unlisted qubit).
Two words are *qubit-wise commuting* (QWC) when their single-qubit factors
commute at every position, i.e. wherever both words are non-identity the
axes agree.  QWC terms share a tensor-product measurement basis, which is
what the grouping machinery in the rest of the package exploits.

Hamiltonians are read from a simple line-oriented text format compatible
with common electronic-structure dumps::

    # qubits: 4          (optional header; otherwise inferred)
    0.5    [Z0 Z1]
    -0.25  [X0 Y2]
    (1.0,0.0) [Z3]       (complex literals allowed, imaginary must be ~0)
    1.0    []            (empty brackets: the identity word)

Qubit indices are zero-based everywhere in this package.

A word is its x and z bitmasks, and one table maps each axis to its two
bits and back.  Each distinct factor token is checked once per parse:
:func:`parse_hamiltonian` keeps a dict from each factor token it has read,
such as ``Z3``, to its qubit's bit and its x and z bits, and only the
repeated-qubit test runs on every occurrence, against the word's masks.
The parser builds its Hamiltonian without re-checking the merged words;
the classes check only what library callers pass them.
"""

from __future__ import annotations

import enum
import io
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice

__all__ = [
    "COEFFICIENT_PRUNE_THRESHOLD",
    "IMAGINARY_TOLERANCE",
    "MAX_QUBIT_INDEX",
    "Hamiltonian",
    "HamiltonianTerm",
    "ParseError",
    "PauliAxis",
    "PauliWord",
    "format_hamiltonian",
    "parse_hamiltonian",
    "qubit_wise_commute",
]

# Terms whose merged coefficient falls below this magnitude are dropped:
# numerically-zero terms only inflate the term graph.
COEFFICIENT_PRUNE_THRESHOLD = 1e-12

# Complex input coefficients are accepted, but an imaginary part larger than
# this is an error (Hermitian qubit Hamiltonians have real coefficients);
# anything smaller is truncated silently.
IMAGINARY_TOLERANCE = 1e-10

# Largest accepted qubit index.  A word's masks hold one bit per qubit up
# to its highest index, so an absurd index would otherwise allocate (or
# fail to allocate) a huge integer before anything could reject it.
MAX_QUBIT_INDEX = (1 << 16) - 1


class ParseError(ValueError):
    """Malformed Hamiltonian text; carries the 1-based input location."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}"
        if column is not None:
            where += f", column {column}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class PauliAxis(enum.Enum):
    """Single-qubit Pauli factor: identity or one of the three axes."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __str__(self) -> str:
        return self.value


# Each axis at index x bit + 2 * z bit: the one table between axes and bits.
_AXES = (PauliAxis.I, PauliAxis.X, PauliAxis.Z, PauliAxis.Y)
_BITS = {axis: (code & 1, code >> 1) for code, axis in enumerate(_AXES)}
_NAMES = "".join(axis.value for axis in _AXES)


def _as_axis(value: PauliAxis | str) -> PauliAxis:
    if isinstance(value, PauliAxis):
        return value
    return PauliAxis(str(value).upper())


def _axis_at(x_mask: int, z_mask: int, qubit: int) -> PauliAxis:
    """The axis that bit ``qubit`` of the two masks encodes."""
    return _AXES[(x_mask >> qubit & 1) | (z_mask >> qubit & 1) << 1]


class PauliWord:
    """A product of single-qubit Pauli factors, stored as two bitmasks.

    Bit q of the x mask is set when the factor on qubit q is X or Y, and of
    the z mask when it is Z or Y; both masks 0 is the identity operator.
    Words are immutable, iterating one decodes its masks into ``(qubit,
    axis)`` pairs in qubit order, and a word hashes its two masks.

    The constructor checks every factor it is given; :meth:`from_string`
    and :func:`parse_hamiltonian` check each factor while parsing it and
    skip the constructor.

    Args:
        factors: mapping from qubit index to axis, or an iterable of
            ``(qubit, axis)`` pairs.  Qubits are integers; axes may be
            :class:`PauliAxis` members or single letters; identity entries
            are dropped, but still count as listing their qubit.

    Raises:
        TypeError: on a qubit index that is not an integer, or is a
            ``bool``.
        ValueError: on a qubit index outside ``0..MAX_QUBIT_INDEX`` or a
            qubit listed twice.
    """

    __slots__ = ("_x_mask", "_z_mask", "_hash")

    def __init__(self, factors: Mapping[int, PauliAxis | str] | Iterable[tuple[int, PauliAxis | str]] = ()):
        pairs = factors.items() if isinstance(factors, Mapping) else factors
        listed = x_mask = z_mask = 0
        for qubit, axis in pairs:
            if isinstance(qubit, bool):
                raise TypeError(f"qubit index must be an int, not {qubit!r}")
            qubit = operator.index(qubit)
            x, z = _BITS[_as_axis(axis)]
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if qubit > MAX_QUBIT_INDEX:
                raise ValueError(f"qubit index {qubit} above the limit {MAX_QUBIT_INDEX}")
            if listed >> qubit & 1:
                raise ValueError(f"qubit {qubit} listed more than once")
            listed |= 1 << qubit
            x_mask |= x << qubit
            z_mask |= z << qubit
        self._lay_out(x_mask, z_mask)

    def _lay_out(self, x_mask: int, z_mask: int) -> PauliWord:
        """Set the fields from checked masks."""
        self._x_mask = x_mask
        self._z_mask = z_mask
        self._hash = hash((x_mask, z_mask))
        return self

    @classmethod
    def from_string(cls, text: str) -> "PauliWord":
        """Build a word from factor notation such as ``"Z0 Z1 X4"``, read as
        the factors of a Hamiltonian file's line 1 (so errors are ParseErrors)."""
        return _parse_word(text, 0, 1, {})

    @property
    def x_mask(self) -> int:
        """Bit q set when the factor on qubit q is X or Y."""
        return self._x_mask

    @property
    def z_mask(self) -> int:
        """Bit q set when the factor on qubit q is Z or Y."""
        return self._z_mask

    @property
    def support_mask(self) -> int:
        """Bit q set when the factor on qubit q is non-identity."""
        return self._x_mask | self._z_mask

    @property
    def max_qubit(self) -> int | None:
        support = self._x_mask | self._z_mask
        return support.bit_length() - 1 if support else None

    def __iter__(self) -> Iterator[tuple[int, PauliAxis]]:
        x, z = self._x_mask, self._z_mask
        rest = x | z
        while rest:
            low = rest & -rest
            qubit = low.bit_length() - 1
            yield qubit, _axis_at(x, z, qubit)
            rest ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliWord):
            return NotImplemented
        return self._x_mask == other._x_mask and self._z_mask == other._z_mask

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # Walks the support itself: a generator per word slows format_hamiltonian.
        x, z = self._x_mask, self._z_mask
        rest = x | z
        factors = []
        while rest:
            low = rest & -rest
            qubit = low.bit_length() - 1
            factors.append(f"{_NAMES[(x >> qubit & 1) | (z >> qubit & 1) << 1]}{qubit}")
            rest ^= low
        return " ".join(factors)

    def __repr__(self) -> str:
        return f"PauliWord({str(self)!r})"


def qubit_wise_commute(a: PauliWord, b: PauliWord) -> bool:
    """Whether every single-qubit factor of ``a`` commutes with its
    counterpart in ``b``.

    Equivalent formulation: wherever both words are non-identity, the axes
    match.  Qubit-wise commutation is strictly stronger than ordinary
    commutation, which allows an even number of differing positions.
    """
    common = a.support_mask & b.support_mask
    return not (((a.x_mask ^ b.x_mask) | (a.z_mask ^ b.z_mask)) & common)


def _as_float(value: object) -> float:
    """A real coefficient of another type than ``float`` or ``int`` as a
    ``float``; a ``bool`` or a non-real value is a ``TypeError``."""
    import numbers  # loaded only for such a coefficient

    decimal = sys.modules.get("decimal")  # no Decimal exists before its module loads
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real)
        or decimal is not None and isinstance(value, decimal.Decimal)
    ):
        raise TypeError(f"coefficient must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True, slots=True)
class HamiltonianTerm:
    """One weighted Pauli word of a Hamiltonian.

    A coefficient that is a real number of another type than ``float`` or
    ``int`` (a numpy scalar, a ``Fraction``, a ``Decimal``) is stored as a
    ``float``, so that :func:`format_hamiltonian` writes text the parser
    reads back.

    Raises:
        TypeError: the coefficient is a ``bool`` or not a real number.
        ValueError: the coefficient is not finite.
    """

    coefficient: float
    word: PauliWord

    def __post_init__(self) -> None:
        coefficient = self.coefficient
        if type(coefficient) is not float and type(coefficient) is not int:
            coefficient = _as_float(coefficient)
            object.__setattr__(self, "coefficient", coefficient)
        if not math.isfinite(coefficient):
            raise ValueError(f"non-finite coefficient {coefficient!r}")

    def __str__(self) -> str:
        return f"{self.coefficient!r} [{self.word}]"


@dataclass(frozen=True, slots=True)
class Hamiltonian:
    """An ordered list of weighted Pauli words over ``n_qubits`` qubits.

    Direct construction checks that the input is normalized (unique words,
    indices within range); :func:`parse_hamiltonian` merges duplicates and
    prunes negligible coefficients.  Term order is significant: it is
    preserved from the input and defines the input-order coloring heuristic.
    """

    terms: tuple[HamiltonianTerm, ...]
    n_qubits: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, int) or isinstance(self.n_qubits, bool):
            raise TypeError(f"n_qubits must be an int, got {self.n_qubits!r}")
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        seen: set[PauliWord] = set()
        for term in self.terms:
            word = term.word
            if word in seen:
                raise ValueError(f"duplicate Pauli word [{word}]")
            seen.add(word)
            if word.max_qubit is not None and word.max_qubit >= self.n_qubits:
                raise ValueError(
                    f"word [{word}] touches qubit {word.max_qubit} "
                    f"but n_qubits is {self.n_qubits}"
                )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def words(self) -> tuple[PauliWord, ...]:
        return tuple(term.word for term in self.terms)


# --- text format -----------------------------------------------------------

_HEADER_RE = re.compile(r"#\s*qubits\s*:\s*([0-9]+)\s*$")
_TERM_RE = re.compile(r"(?P<coef>\([^()\[\]]*\)|[^\s\[]+)\s*\[(?P<body>[^\]]*)\]\s*(?P<tail>\S?.*)$")
_FACTOR_RE = re.compile(r"([XYZxyz])([0-9]+)")
_NEGATIVE_FACTOR_RE = re.compile(r"[XYZxyzIi]-[0-9]+$")

# A checked factor: its qubit's bit, and that bit or 0 for each of the
# word's x and z masks.
_Factor = tuple[int, int, int]


def _parse_coefficient(token: str, line_no: int, column: int) -> float:
    if not token.isascii() or "_" in token:  # float() takes 1_0 and non-ASCII digits
        raise ParseError(f"invalid coefficient {token!r}", line_no, column)
    if token.startswith("(") and token.endswith(")"):
        parts = token[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(
                f"complex coefficient must be '(re,im)', got {token!r}", line_no, column
            )
        try:
            real, imag = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"invalid complex coefficient {token!r}", line_no, column) from None
        if not abs(imag) <= IMAGINARY_TOLERANCE:  # NaN fails every comparison
            raise ParseError(
                f"coefficient has non-negligible imaginary part {imag!r}", line_no, column
            )
        value = real
    else:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"invalid coefficient {token!r}", line_no, column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite coefficient {token!r}", line_no, column)
    return value


def _bounded_int(digits: str, limit: int) -> int | None:
    """The decimal ``digits`` as an int, or None when it exceeds ``limit``;
    the digit count is checked after leading zeros are stripped, so no huge
    integer is ever built."""
    significant = digits.lstrip("0") or "0"
    if len(significant) > len(str(limit)):
        return None
    value = int(significant)
    return value if value <= limit else None


def _check_factor(token: str) -> _Factor | str:
    """The checked factor that ``token`` names, or why it names none."""
    factor = _FACTOR_RE.fullmatch(token)
    if factor is None:
        if _NEGATIVE_FACTOR_RE.fullmatch(token):
            return f"negative qubit index in factor {token!r}"
        return f"bad Pauli factor {token!r}"
    letter, digits = factor.groups()
    qubit = _bounded_int(digits, MAX_QUBIT_INDEX)
    if qubit is None:
        return f"qubit index above the limit {MAX_QUBIT_INDEX}"
    x, z = _BITS[PauliAxis(letter.upper())]
    return 1 << qubit, x << qubit, z << qubit


def _token_column(body: str, body_offset: int, index: int) -> int:
    """The 1-based column of token ``index`` of ``body``, which starts at
    ``body_offset``; ``str.split`` and ``\\S+`` find the same tokens."""
    match = next(islice(re.finditer(r"\S+", body), index, None))
    return body_offset + match.start() + 1


def _parse_word(body: str, body_offset: int, line_no: int, factors: dict[str, _Factor]) -> PauliWord:
    """The word whose factors ``body`` lists.  ``factors`` maps each token
    already checked in this parse to its factor, and gains each new one; a
    bad token ends the parse, so it is never stored."""
    x_mask = z_mask = 0
    for index, token in enumerate(body.split()):
        factor = factors.get(token)
        if factor is None:
            factor = _check_factor(token)
            if isinstance(factor, str):
                raise ParseError(factor, line_no, _token_column(body, body_offset, index))
            factors[token] = factor
        bit, x_bit, z_bit = factor
        if (x_mask | z_mask) & bit:
            raise ParseError(
                f"qubit {bit.bit_length() - 1} assigned more than one factor in one word",
                line_no,
                _token_column(body, body_offset, index),
            )
        x_mask |= x_bit
        z_mask |= z_bit
    return object.__new__(PauliWord)._lay_out(x_mask, z_mask)


def parse_hamiltonian(source: str | Iterable[str]) -> Hamiltonian:
    """Parse Hamiltonian text into a normalized :class:`Hamiltonian`.

    ``source`` is a string or any iterable of lines (e.g. an open file).
    A string breaks into lines where a file opened in text mode would: at
    ``\n``, ``\r\n`` and ``\r`` only, not at the form feeds and Unicode
    separators ``str.splitlines`` also breaks at, so a location names the
    same line either way.  Qubit indices and the header's count are ASCII
    decimal digits.  Duplicate words are merged, negligible terms pruned,
    and the qubit count taken from the ``# qubits: N`` header when present,
    otherwise from the largest index seen.  A header with no term lines is
    the zero Hamiltonian on N qubits, as :func:`format_hamiltonian` writes it.
    One byte-order mark (U+FEFF) at the very start of the input is dropped,
    so a header on the first line still counts and columns on that line
    count from the character after it; any other U+FEFF is text.

    Raises:
        ParseError: malformed line, duplicate qubit within a word,
            negative qubit index or one above :data:`MAX_QUBIT_INDEX`,
            an imaginary part beyond tolerance or NaN, a repeated word whose
            coefficients sum to a non-finite value (located at the line
            that overflows), a header smaller than the largest used index,
            or neither a term line nor a header (located at the last line
            read, line 1 if none).
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    declared_qubits: int | None = None
    header_line = 0
    merged: dict[PauliWord, float] = {}
    factors: dict[str, _Factor] = {}  # each factor token read so far, checked
    support = 0  # every qubit a word has used
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        if line_no == 1 and raw.startswith("\ufeff"):
            raw = raw[1:]
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header = _HEADER_RE.match(stripped)
            if header is not None:
                if declared_qubits is not None:
                    raise ParseError("duplicate 'qubits:' header", line_no)
                declared_qubits = _bounded_int(header.group(1), MAX_QUBIT_INDEX + 1)
                if declared_qubits is None:
                    raise ParseError(
                        f"declared qubit count above the limit {MAX_QUBIT_INDEX + 1}", line_no
                    )
                header_line = line_no
            continue
        indent = len(line) - len(line.lstrip())
        match = _TERM_RE.match(stripped)
        if match is None:
            raise ParseError("expected 'coefficient [factors]'", line_no, indent + 1)
        if match.group("tail").strip():
            raise ParseError(
                f"unexpected text after ']': {match.group('tail').strip()!r}",
                line_no,
                indent + match.start("tail") + 1,
            )
        coefficient = _parse_coefficient(match.group("coef"), line_no, indent + 1)
        word = _parse_word(match.group("body"), indent + match.start("body"), line_no, factors)
        support |= word._x_mask | word._z_mask
        if word in merged:
            total = merged[word] + coefficient
            if not math.isfinite(total):
                raise ParseError(
                    f"coefficients of [{word}] sum to {total!r}", line_no, indent + 1
                )
            merged[word] = total
        else:
            merged[word] = coefficient
    if not merged and declared_qubits is None:
        raise ParseError("empty input: no Hamiltonian terms found", max(line_no, 1))
    max_seen = support.bit_length() - 1
    if declared_qubits is not None and max_seen >= declared_qubits:
        raise ParseError(
            f"header declares {declared_qubits} qubits but qubit {max_seen} is used",
            header_line,
        )
    h = object.__new__(Hamiltonian)  # the merged words are unique and within n_qubits
    object.__setattr__(h, "terms", tuple([
        HamiltonianTerm(coefficient, word)
        for word, coefficient in merged.items()
        if abs(coefficient) >= COEFFICIENT_PRUNE_THRESHOLD
    ]))
    object.__setattr__(h, "n_qubits", max_seen + 1 if declared_qubits is None else declared_qubits)
    return h


def format_hamiltonian(h: Hamiltonian) -> str:
    """Serialize to the text format, each coefficient as its ``repr``.

    Parsing the result reproduces ``h`` when every coefficient has a
    magnitude of at least :data:`COEFFICIENT_PRUNE_THRESHOLD`, as in every
    Hamiltonian :func:`parse_hamiltonian` returns.  A term built directly
    with a smaller coefficient, ``0.0`` and ``-0.0`` included, is written
    but pruned on reading.
    """
    return "\n".join([f"# qubits: {h.n_qubits}", *map(str, h.terms)]) + "\n"

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
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

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
    "fully_commute",
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


_MEASURABLE_AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)


def _as_axis(value: PauliAxis | str) -> PauliAxis:
    if isinstance(value, PauliAxis):
        return value
    return PauliAxis(str(value).upper())


class PauliWord:
    """A product of single-qubit Pauli factors, stored sparsely.

    Only non-identity factors are stored; the empty word is the identity
    operator.  Words are immutable, hashable and ordered internally by
    qubit index, so two words built from the same factors compare equal.

    Args:
        factors: mapping from qubit index to axis, or an iterable of
            ``(qubit, axis)`` pairs.  Axes may be :class:`PauliAxis`
            members or single letters; identity entries are dropped.

    Raises:
        ValueError: on a qubit index outside ``0..MAX_QUBIT_INDEX`` or a
            qubit listed twice.
    """

    __slots__ = ("_items", "_x_mask", "_z_mask", "_hash")

    def __init__(self, factors: Mapping[int, PauliAxis | str] | Iterable[tuple[int, PauliAxis | str]] = ()):
        pairs = factors.items() if isinstance(factors, Mapping) else factors
        collected: dict[int, PauliAxis] = {}
        for qubit, axis in pairs:
            qubit = int(qubit)
            axis = _as_axis(axis)
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if qubit > MAX_QUBIT_INDEX:
                raise ValueError(f"qubit index {qubit} above the limit {MAX_QUBIT_INDEX}")
            if qubit in collected:
                raise ValueError(f"qubit {qubit} listed more than once")
            if axis is PauliAxis.I:
                continue
            collected[qubit] = axis
        self._items: tuple[tuple[int, PauliAxis], ...] = tuple(sorted(collected.items()))
        x_mask = 0
        z_mask = 0
        for qubit, axis in self._items:
            bit = 1 << qubit
            if axis is not PauliAxis.Z:
                x_mask |= bit
            if axis is not PauliAxis.X:
                z_mask |= bit
        self._x_mask = x_mask
        self._z_mask = z_mask
        self._hash = hash(self._items)

    @classmethod
    def from_string(cls, text: str) -> "PauliWord":
        """Build a word from factor notation such as ``"Z0 Z1 X4"``."""
        factors = []
        for token in text.split():
            match = re.fullmatch(r"([XYZxyz])(\d+)", token)
            if match is None:
                raise ValueError(f"bad Pauli factor {token!r}")
            factors.append((int(match.group(2)), match.group(1)))
        return cls(factors)

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

    def axis_on(self, qubit: int) -> PauliAxis:
        for q, axis in self._items:
            if q == qubit:
                return axis
        return PauliAxis.I

    @property
    def is_identity(self) -> bool:
        return not self._items

    @property
    def max_qubit(self) -> int | None:
        return self._items[-1][0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[int, PauliAxis]]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliWord):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return " ".join(f"{axis}{qubit}" for qubit, axis in self._items)

    def __repr__(self) -> str:
        return f"PauliWord({str(self)!r})"


def qubit_wise_commute(a: PauliWord, b: PauliWord) -> bool:
    """Whether every single-qubit factor of ``a`` commutes with its
    counterpart in ``b``.

    Equivalent formulation: wherever both words are non-identity, the axes
    match.  Qubit-wise commutation is strictly stronger than ordinary
    commutation (see :func:`fully_commute`).
    """
    common = a.support_mask & b.support_mask
    return not (((a.x_mask ^ b.x_mask) | (a.z_mask ^ b.z_mask)) & common)


def fully_commute(a: PauliWord, b: PauliWord) -> bool:
    """Whether the two words commute as operators.

    Two Pauli words commute exactly when the number of qubit positions
    where both are non-identity with differing axes is even (each such
    position contributes a factor of -1 on reordering).
    """
    common = a.support_mask & b.support_mask
    differing = ((a.x_mask ^ b.x_mask) | (a.z_mask ^ b.z_mask)) & common
    return differing.bit_count() % 2 == 0


@dataclass(frozen=True, slots=True)
class HamiltonianTerm:
    """One weighted Pauli word of a Hamiltonian."""

    coefficient: float
    word: PauliWord

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError(f"non-finite coefficient {self.coefficient!r}")

    def __str__(self) -> str:
        return f"{self.coefficient!r} [{self.word}]"


@dataclass(frozen=True, slots=True)
class Hamiltonian:
    """An ordered list of weighted Pauli words over ``n_qubits`` qubits.

    Direct construction expects already-normalized input (unique words,
    indices within range); use :meth:`from_terms` or
    :func:`parse_hamiltonian` to merge duplicates and prune negligible
    coefficients.  Term order is significant: it is preserved from the
    input and defines the input-order coloring heuristic.
    """

    terms: tuple[HamiltonianTerm, ...]
    n_qubits: int

    def __post_init__(self) -> None:
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

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[float, PauliWord] | HamiltonianTerm],
        n_qubits: int | None = None,
    ) -> "Hamiltonian":
        """Normalize and build: merge duplicate words (summing coefficients),
        drop terms below :data:`COEFFICIENT_PRUNE_THRESHOLD`, and infer
        ``n_qubits`` from the largest touched index unless given explicitly.
        First-occurrence order of each word is preserved.
        """
        merged: dict[PauliWord, float] = {}
        max_seen = -1
        for item in terms:
            if isinstance(item, HamiltonianTerm):
                coefficient, word = item.coefficient, item.word
            else:
                coefficient, word = item
            if not math.isfinite(coefficient):
                raise ValueError(f"non-finite coefficient {coefficient!r}")
            if word in merged:
                merged[word] += coefficient
            else:
                merged[word] = coefficient
            if word.max_qubit is not None:
                max_seen = max(max_seen, word.max_qubit)
        kept = tuple(
            HamiltonianTerm(coefficient, word)
            for word, coefficient in merged.items()
            if abs(coefficient) >= COEFFICIENT_PRUNE_THRESHOLD
        )
        if n_qubits is None:
            n_qubits = max_seen + 1
        elif max_seen >= n_qubits:
            raise ValueError(
                f"declared n_qubits={n_qubits} but qubit {max_seen} is used"
            )
        return cls(kept, n_qubits)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def words(self) -> tuple[PauliWord, ...]:
        return tuple(term.word for term in self.terms)


# --- text format -----------------------------------------------------------

_HEADER_RE = re.compile(r"#\s*qubits\s*:\s*(\d+)\s*$")
_TERM_RE = re.compile(r"(?P<coef>\([^()\[\]]*\)|[^\s\[]+)\s*\[(?P<body>[^\]]*)\]\s*(?P<tail>\S?.*)$")
_FACTOR_RE = re.compile(r"([XYZxyz])(\d+)$")
_NEGATIVE_FACTOR_RE = re.compile(r"[XYZxyzIi]-\d+$")


def _parse_coefficient(token: str, line_no: int, column: int) -> float:
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
        if abs(imag) > IMAGINARY_TOLERANCE:
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


def _bounded_int(digits: str, limit: int, what: str, line_no: int, column: int | None = None) -> int:
    """The decimal ``digits`` as an int, or a :class:`ParseError` when it
    exceeds ``limit``; the digit count is checked first, so no huge
    integer is ever built."""
    significant = digits.lstrip("0") or "0"
    value = int(significant) if len(significant) <= len(str(limit)) else limit + 1
    if value > limit:
        raise ParseError(f"{what} above the limit {limit}", line_no, column)
    return value


def _parse_word(body: str, body_offset: int, line_no: int) -> PauliWord:
    factors: dict[int, PauliAxis] = {}
    for match in re.finditer(r"\S+", body):
        token = match.group(0)
        column = body_offset + match.start() + 1
        factor = _FACTOR_RE.fullmatch(token)
        if factor is None:
            if _NEGATIVE_FACTOR_RE.fullmatch(token):
                raise ParseError(f"negative qubit index in factor {token!r}", line_no, column)
            raise ParseError(f"bad Pauli factor {token!r}", line_no, column)
        qubit = _bounded_int(factor.group(2), MAX_QUBIT_INDEX, "qubit index", line_no, column)
        if qubit in factors:
            raise ParseError(
                f"qubit {qubit} assigned more than one factor in one word", line_no, column
            )
        factors[qubit] = PauliAxis(factor.group(1).upper())
    return PauliWord(factors)


def parse_hamiltonian(source: str | Iterable[str]) -> Hamiltonian:
    """Parse Hamiltonian text into a normalized :class:`Hamiltonian`.

    ``source`` is a string or any iterable of lines (e.g. an open file).
    Duplicate words are merged, negligible terms pruned, and the qubit
    count taken from the ``# qubits: N`` header when present, otherwise
    from the largest index seen.

    Raises:
        ParseError: malformed line, duplicate qubit within a word,
            negative qubit index or one above :data:`MAX_QUBIT_INDEX`,
            an imaginary part beyond tolerance, a repeated word whose
            coefficients sum to a non-finite value (located at the line
            that overflows), a header smaller than the largest used index,
            or no term lines at all (located at the last line read, line 1
            if none).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    declared_qubits: int | None = None
    header_line = 0
    merged: dict[PauliWord, float] = {}
    max_seen = -1
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header = _HEADER_RE.match(stripped)
            if header is not None:
                if declared_qubits is not None:
                    raise ParseError("duplicate 'qubits:' header", line_no)
                declared_qubits = _bounded_int(
                    header.group(1), MAX_QUBIT_INDEX + 1, "declared qubit count", line_no
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
        word = _parse_word(match.group("body"), indent + match.start("body"), line_no)
        if word.max_qubit is not None:
            max_seen = max(max_seen, word.max_qubit)
        if word in merged:
            total = merged[word] + coefficient
            if not math.isfinite(total):
                raise ParseError(
                    f"coefficients of [{word}] sum to {total!r}", line_no, indent + 1
                )
            merged[word] = total
        else:
            merged[word] = coefficient
    if not merged:
        raise ParseError("empty input: no Hamiltonian terms found", max(line_no, 1))
    if declared_qubits is not None and max_seen >= declared_qubits:
        raise ParseError(
            f"header declares {declared_qubits} qubits but qubit {max_seen} is used",
            header_line,
        )
    return Hamiltonian.from_terms(
        [(coefficient, word) for word, coefficient in merged.items()], n_qubits=declared_qubits
    )


def format_hamiltonian(h: Hamiltonian, include_header: bool = True) -> str:
    """Serialize to the text format; parsing the result reproduces ``h``."""
    lines = []
    if include_header:
        lines.append(f"# qubits: {h.n_qubits}")
    lines.extend(f"{term.coefficient!r} [{term.word}]" for term in h.terms)
    return "\n".join(lines) + "\n"

"""Dense-bitset term graphs.

One vertex per Hamiltonian term; an edge joins every qubit-wise commuting
pair.  Adjacency is stored as one arbitrary-precision integer bitset per
row, which makes complementation, residual neighborhoods (``row & alive``)
and common-neighbor counting cheap bitwise work.  Complements of QWC
graphs are typically near-complete, so dense storage costs nothing over
sparse lists here.

:func:`build_qwc_graph` builds the rows from term bitsets as well: per
qubit, the terms whose words set its x bit and those that set its z bit.
On that qubit X clashes with the z-bit terms, Z with the x-bit terms and
Y with the terms that set just one of the two, and row ``i`` is every
term outside the union of the clashes of term ``i``'s factors (and other
than ``i``).  That is one bitset OR per factor of each term, with no
pairwise loop.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .pauli import Hamiltonian

__all__ = [
    "MAX_GRAPH_VERTICES",
    "CapacityError",
    "TermGraph",
    "build_qwc_graph",
    "iter_bits",
]

# Largest accepted vertex count.  Each of the n rows holds n bits, and the
# complement holds as many again: 2 * n * n / 8 bytes, which is 2**30 bytes
# (1 GiB) at n = 2**16.
MAX_GRAPH_VERTICES = 1 << 16


class CapacityError(RuntimeError):
    """An instance exceeds a hard size cap instead of exhausting memory."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, ascending.

    Raises:
        ValueError: ``mask`` is negative, so it has endlessly many set bits.
    """
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _planes(values: Sequence[int], width: int | None = None) -> list[int]:
    """Bit-sliced counters: bit ``u`` of plane ``j`` is bit ``j`` of ``values[u]``,
    for ``width`` planes (default: as many as the largest value has bits).

    One pass over each value's set bits, so tiny graphs pay little.
    """
    planes = [0] * (max(values, default=0).bit_length() if width is None else width)
    for u, value in enumerate(values):
        bit = 1 << u
        while value:
            low = value & -value
            planes[low.bit_length() - 1] |= bit
            value ^= low
    return planes


class TermGraph:
    """Immutable undirected graph over ``n`` vertices, bitset rows.

    Row ``i`` holds the neighbor set of vertex ``i`` as an integer bitset.
    Adjacency is symmetric and irreflexive: the constructor rejects
    self-loops, and the factories keep rows symmetric.
    """

    __slots__ = ("n", "_rows", "_degrees", "_degree_planes", "_complement")

    def __init__(self, rows: Sequence[int]):
        n = len(rows)
        if n > MAX_GRAPH_VERTICES:
            raise CapacityError(
                f"{n} vertices exceeds the {MAX_GRAPH_VERTICES}-vertex cap"
            )
        limit = 1 << n
        for i, row in enumerate(rows):
            if row >= limit or row < 0:
                raise ValueError(f"row {i} references vertices outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop on vertex {i}")
        self.n = n
        self._rows = tuple(rows)
        self._degrees: tuple[int, ...] | None = None
        self._degree_planes: tuple[int, ...] | None = None
        self._complement: TermGraph | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "TermGraph":
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(rows)

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            # From a list: tuple() resizes a generator's result, and resized
            # tuples collect in the tuple free lists until a full collection.
            self._degrees = tuple([row.bit_count() for row in self._rows])
        return self._degrees

    @property
    def degree_planes(self) -> tuple[int, ...]:
        """The degrees as bit-sliced counters: bit ``u`` of plane ``j`` is
        bit ``j`` of vertex ``u``'s degree; built once per graph."""
        if self._degree_planes is None:
            self._degree_planes = tuple(_planes(self.degrees))
        return self._degree_planes

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self._rows[v])

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._rows[i] >> j & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self._rows):
            for j in iter_bits(row >> (i + 1) << (i + 1)):
                yield (i, j)

    def complement(self) -> "TermGraph":
        """Graph on the same vertices with exactly the missing edges;
        built once per graph."""
        if self._complement is None:
            full = (1 << self.n) - 1
            self._complement = TermGraph(
                [full & ~(row | (1 << i)) for i, row in enumerate(self._rows)]
            )
        return self._complement

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermGraph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"TermGraph(n={self.n}, edges={self.edge_count})"


def build_qwc_graph(h: Hamiltonian) -> TermGraph:
    """Build the QWC graph of a Hamiltonian.

    Vertex ``i`` is ``h.terms[i]``; the edge ``(i, j)`` is present exactly
    when the two words qubit-wise commute, i.e. when no qubit carries a
    different axis in each.  Row ``i`` is the complement of ``i`` and of
    the terms that clash with one of its factors.
    """
    n = len(h.terms)
    if n > MAX_GRAPH_VERTICES:
        raise CapacityError(
            f"Hamiltonian has {n} terms, more than the {MAX_GRAPH_VERTICES}-vertex cap"
        )
    words = [term.word for term in h.terms]
    # Bit i of x_terms[q] is bit q of term i's x mask, and so for z.
    width = max([word.support_mask for word in words], default=0).bit_length()
    x_terms = _planes([word.x_mask for word in words], width)
    z_terms = _planes([word.z_mask for word in words], width)
    y_clashes = [x ^ z for x, z in zip(x_terms, z_terms)]
    full = (1 << n) - 1
    rows = []
    for i, word in enumerate(words):
        x, z = word.x_mask, word.z_mask
        blocked = 1 << i
        for clashes, factors in ((z_terms, x & ~z), (x_terms, z & ~x), (y_clashes, x & z)):
            while factors:
                low = factors & -factors
                blocked |= clashes[low.bit_length() - 1]
                factors ^= low
        rows.append(full ^ blocked)
    return TermGraph(rows)

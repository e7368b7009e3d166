"""Dense-bitset term graphs.

One vertex per Hamiltonian term; an edge joins every qubit-wise commuting
pair.  Adjacency is stored as one arbitrary-precision integer bitset per
row, which makes complementation, residual neighborhoods (``row & alive``)
and common-neighbor counting cheap bitwise work.  Complements of QWC
graphs are typically near-complete, so dense storage costs nothing over
sparse lists here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .pauli import Hamiltonian

__all__ = [
    "MAX_GRAPH_VERTICES",
    "CapacityError",
    "TermGraph",
    "build_qwc_graph",
    "iter_bits",
]

# Guard against accidentally requesting a multi-terabyte adjacency matrix.
MAX_GRAPH_VERTICES = 1 << 20

_LANE_BITS = 64
_LANE_MASK = (1 << _LANE_BITS) - 1


class CapacityError(RuntimeError):
    """An instance exceeds a hard size cap instead of exhausting memory."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TermGraph:
    """Immutable undirected graph over ``n`` vertices, bitset rows.

    Row ``i`` holds the neighbor set of vertex ``i`` as an integer bitset.
    Adjacency is symmetric and irreflexive; factories maintain this, and
    :meth:`check_consistency` verifies it explicitly for tests.
    """

    __slots__ = ("n", "_rows", "_degrees", "_complement")

    def __init__(self, rows: Sequence[int]):
        n = len(rows)
        if n > MAX_GRAPH_VERTICES:
            raise CapacityError(
                f"{n} vertices exceeds the {MAX_GRAPH_VERTICES}-vertex cap"
            )
        limit = 1 << n
        for i, row in enumerate(rows):
            if row >> i & 1:
                raise ValueError(f"self-loop on vertex {i}")
            if row >= limit or row < 0:
                raise ValueError(f"row {i} references vertices outside 0..{n - 1}")
        self.n = n
        self._rows = tuple(rows)
        self._degrees: tuple[int, ...] | None = None
        self._complement: TermGraph | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "TermGraph":
        rows = [0] * n
        for i, j in edges:
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
            self._degrees = tuple(row.bit_count() for row in self._rows)
        return self._degrees

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

    def check_consistency(self) -> None:
        """Assert symmetry, irreflexivity and degree-cache agreement."""
        for i, row in enumerate(self._rows):
            if row >> i & 1:
                raise AssertionError(f"self-loop on {i}")
            for j in iter_bits(row):
                if not self._rows[j] >> i & 1:
                    raise AssertionError(f"asymmetric edge ({i}, {j})")
        if self._degrees is not None and self._degrees != tuple(
            row.bit_count() for row in self._rows
        ):
            raise AssertionError("degree cache out of date")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermGraph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"TermGraph(n={self.n}, edges={self.edge_count})"


def _split_lanes(mask: int, lanes: int) -> list[int]:
    return [(mask >> (_LANE_BITS * lane)) & _LANE_MASK for lane in range(lanes)]


def build_qwc_graph(h: Hamiltonian) -> TermGraph:
    """Build the QWC graph of a Hamiltonian.

    Vertex ``i`` is ``h.terms[i]``; the edge ``(i, j)`` is present exactly
    when the two words qubit-wise commute.  All pairs are evaluated, with
    the words pre-encoded as per-axis bitmasks so each pair test reduces
    to a few word-level bit operations (vectorized across rows).
    """
    n = len(h.terms)
    if n > MAX_GRAPH_VERTICES:
        raise CapacityError(
            f"Hamiltonian has {n} terms, more than the {MAX_GRAPH_VERTICES}-vertex cap"
        )
    if n == 0:
        return TermGraph([])
    lanes = max(1, -(-h.n_qubits // _LANE_BITS))
    xs = np.zeros((n, lanes), dtype=np.uint64)
    zs = np.zeros((n, lanes), dtype=np.uint64)
    for i, term in enumerate(h.terms):
        xs[i] = _split_lanes(term.word.x_mask, lanes)
        zs[i] = _split_lanes(term.word.z_mask, lanes)
    support = xs | zs
    rows = []
    for i in range(n):
        conflict = ((xs[i] ^ xs) | (zs[i] ^ zs)) & (support[i] & support)
        qwc = ~conflict.any(axis=1)
        qwc[i] = False
        packed = np.packbits(qwc, bitorder="little").tobytes()
        rows.append(int.from_bytes(packed, "little"))
    return TermGraph(rows)

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

Those per-qubit bitsets are the transpose of the bit matrix whose rows are
the terms' masks.  The degree counters (:attr:`TermGraph.degree_planes`)
and ``bkt``'s relabelling of the rows by degree
(:func:`qwcover.removal._degree_order`) are transposes too, and one kernel,
:func:`_planes`, computes all three with ``int.to_bytes``, strided
``bytes`` slices, masked shifts on one integer and ``int.from_bytes``:
C-level work and no Python loop over bits.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import reduce
from operator import or_

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


# Bytes of the row matrix that one pass of the transpose in :func:`_planes`
# holds as an integer: enough to amortise its dozen big-integer operations,
# small enough to stay in cache and to keep the pass's temporaries far
# below one row matrix.
_CHUNK_BYTES = 1 << 16

def _planes(values: Sequence[int], width: int | None = None) -> list[int]:
    """Bit-sliced counters: bit ``u`` of plane ``j`` is bit ``j`` of ``values[u]``,
    for ``width`` planes (default: as many as the largest value has bits);
    every value must be below ``2**width``.

    This is the transpose of the bit matrix whose row ``u`` is
    ``values[u]``, done with C-level ``int`` and ``bytes`` operations and
    no loop over bits.  The rows are packed with ``int.to_bytes``, rows
    padded to a multiple of 8, so that each byte column of the matrix is
    one strided slice of the packed bytes.  Joining byte columns lays out
    one 8x8 bit block per 64-bit lane (byte ``i`` of the lane from row
    ``8*r + i``), three masked delta swaps on one integer transpose every
    lane at once, and byte ``k`` of each lane of byte column ``c`` then
    holds 8 bits of plane ``8*c + k``, which one strided slice and
    ``int.from_bytes`` read back.  The byte columns go through in chunks
    of about :data:`_CHUNK_BYTES`, so beside the packed rows and the
    planes the transpose holds only a few chunk-sized temporaries; a byte
    column in which no value has a bit is skipped, its planes left 0.  A
    matrix larger than one chunk is packed in two halves of its byte
    columns, one after the other.
    """
    if width is None:
        width = max(values).bit_length() if values else 0
    if not (values and width):
        return [0] * width
    columns = -(-width // 8)
    height = -(-len(values) // 8) * 8
    # Byte columns where some value has a bit; words spread over many
    # qubits leave most of them empty.
    occupied = reduce(or_, values).to_bytes(columns, "little")
    step = max(1, _CHUNK_BYTES // height)
    # Bit 8*i + k of a 64-bit lane is row i, column k of its 8x8 block.
    # The delta swaps below exchange the off-diagonal bits of each 2x2
    # block, then the off-diagonal 2x2 blocks of each 4x4 block, then the
    # off-diagonal 4x4 blocks (Warren, Hacker's Delight, "Transposing a
    # Bit Matrix"); each mask marks the bits that move down, in every lane
    # of a chunk.
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (min(step, columns) * height // 8), "little")
    mask_1, mask_2, mask_3 = (
        0x00AA00AA00AA00AA * ones, 0x0000CCCC0000CCCC * ones, 0x00000000F0F0F0F0 * ones
    )
    # Past one chunk, the rows are packed half their byte columns at a
    # time: the packed half and the planes then hold about one and a half
    # row matrices, not two.
    span = columns if height * columns <= _CHUNK_BYTES else -(-columns // 2)
    planes = [0] * width
    for low in range(0, columns, span):
        stride = min(span, columns - low)
        packed = b"".join(
            [value.to_bytes(columns, "little")[low : low + stride] for value in values]
            + [bytes((height - len(values)) * stride)]
        )
        taken_columns = [c for c in range(low, low + stride) if occupied[c]]
        for first in range(0, len(taken_columns), step):
            taken = taken_columns[first : first + step]
            chunk = b"".join([packed[c - low :: stride] for c in taken])
            blocks = int.from_bytes(chunk, "little")
            # A swap by s xors moved and moved << s into blocks; they share
            # no bit, so that is moved * (2**s + 1).
            moved = (blocks ^ blocks >> 7) & mask_1
            blocks ^= moved * 0x81
            moved = (blocks ^ blocks >> 14) & mask_2
            blocks ^= moved * 0x4001
            moved = (blocks ^ blocks >> 28) & mask_3
            blocks ^= moved * 0x10000001
            chunk = blocks.to_bytes(len(chunk), "little")
            for c, start in zip(taken, range(0, len(chunk), height)):
                planes[8 * c : 8 * c + 8] = [
                    int.from_bytes(chunk[start + k : start + height : 8], "little")
                    for k in range(min(8, width - 8 * c))
                ]
        del packed  # before the next half is packed
    return planes


class TermGraph:
    """Immutable undirected graph over ``n`` vertices, bitset rows.

    Row ``i`` holds the neighbor set of vertex ``i`` as an integer bitset.
    Adjacency is symmetric and irreflexive: the constructor rejects
    self-loops and rows that reach past vertex ``n - 1``, for outside
    callers.  :func:`build_qwc_graph` and :meth:`complement` lay out their
    graphs without those checks, since their rows cannot fail them: each
    row is masked to the ``n`` vertices with the vertex's own bit cleared,
    and the QWC relation and its complement are symmetric.
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
        self._lay_out(rows)

    def _lay_out(self, rows: Sequence[int]) -> TermGraph:
        """Set the fields from rows that pass the constructor's checks."""
        self.n = len(rows)
        self._rows = tuple(rows)
        self._degrees: tuple[int, ...] | None = None
        self._degree_planes: tuple[int, ...] | None = None
        self._complement: TermGraph | None = None
        return self

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

    def complement(self) -> "TermGraph":
        """Graph on the same vertices with exactly the missing edges;
        built once per graph."""
        if self._complement is None:
            full = (1 << self.n) - 1
            self._complement = object.__new__(TermGraph)._lay_out(
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


def _high_to_low(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, descending.  Each clears the highest
    bit, so a sparse mask shrinks at once to its next bit, where
    :func:`iter_bits` would rewrite the whole mask once per bit."""
    while mask:
        q = mask.bit_length() - 1
        yield q
        mask ^= 1 << q


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
    xs = [term.word.x_mask for term in h.terms]
    zs = [term.word.z_mask for term in h.terms]
    support = reduce(or_, xs, 0) | reduce(or_, zs, 0)
    width = support.bit_count()
    if support.bit_length() > width:
        # Some qubit below the highest is unused: number the occupied
        # qubits 0.. in order, so that the transpose and the factor loop
        # below take time with the occupied qubits, not the highest index.
        # Clashes sit on one qubit, so the rows stay the same.
        place = [0] * support.bit_length()
        for rank, q in enumerate(_high_to_low(support)):
            place[q] = 1 << width - 1 - rank
        xs = [sum([place[q] for q in _high_to_low(x)]) for x in xs]
        zs = [sum([place[q] for q in _high_to_low(z)]) for z in zs]
    # Bit i of x_terms[q] is bit q of term i's x mask, and so for z; one
    # transpose gives both, the z masks shifted above the x masks.
    planes = _planes([x | z << width for x, z in zip(xs, zs)], 2 * width)
    x_terms, z_terms = planes[:width], planes[width:]
    y_clashes = [x ^ z for x, z in zip(x_terms, z_terms)]
    full = (1 << n) - 1
    rows = []
    for i, (x, z) in enumerate(zip(xs, zs)):
        blocked = 1 << i
        for clashes, factors in ((z_terms, x & ~z), (x_terms, z & ~x), (y_clashes, x & z)):
            while factors:
                low = factors & -factors
                blocked |= clashes[low.bit_length() - 1]
                factors ^= low
        rows.append(full ^ blocked)
    return object.__new__(TermGraph)._lay_out(rows)

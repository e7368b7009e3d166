"""Graph-coloring solvers for the minimum clique cover.

A minimum clique cover of the QWC graph G is a minimum proper coloring of
its complement: vertices sharing a color are pairwise non-adjacent in the
complement, hence pairwise adjacent in G.  Everything here coloring the
complement therefore yields a cover through :func:`cover_from_coloring`.

All tie-breaking is by ascending vertex index (pairs lexicographically),
so every solver is deterministic; none of them uses randomness.

Smallest-last and DSATUR select on per-vertex counts (residual degree,
saturation) that they keep as bit-sliced counters over the row bitsets:
plane ``j`` holds bit ``j`` of every vertex's count, so updating the counts
of a whole neighborhood, or narrowing a candidate set to its minimum or
maximum count, costs O(log n) big-integer operations instead of one Python
call per vertex.

DB picks its pair by lazy greedy evaluation (Minoux's accelerated greedy):
each row keeps an upper bound on the common-neighbor counts of its pairs,
and only rows whose bound could still beat the best exact count are
rescanned.  A merge raises a pair's count by at most 1, and only for pairs
split across the two merged neighborhoods, so the bounds stay valid at
O(degree) upkeep per merge and the chosen pair is the one a full scan
would choose.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

from .cover import CliqueCover
from .graph import TermGraph, iter_bits

__all__ = [
    "Coloring",
    "cosine_coloring",
    "cover_from_coloring",
    "db_coloring",
    "dsatur_coloring",
    "input_order",
    "largest_first_order",
    "rlf_coloring",
    "sequential_coloring",
    "smallest_last_order",
]


@dataclass(frozen=True, slots=True)
class Coloring:
    """A proper vertex coloring with contiguous colors ``0..n_colors-1``."""

    color_of: tuple[int, ...]
    n_colors: int

    def __post_init__(self) -> None:
        used = set(self.color_of)
        if self.color_of and used != set(range(self.n_colors)):
            raise ValueError("colors must be exactly 0..n_colors-1")
        if not self.color_of and self.n_colors != 0:
            raise ValueError("empty coloring must use zero colors")

    def classes(self) -> list[list[int]]:
        """Vertices per color, ascending within each class."""
        out: list[list[int]] = [[] for _ in range(self.n_colors)]
        for v, c in enumerate(self.color_of):
            out[c].append(v)
        return out


def input_order(g: TermGraph) -> tuple[int, ...]:
    """Vertices exactly as given, i.e. Hamiltonian input order."""
    return tuple(range(g.n))


def largest_first_order(g: TermGraph) -> tuple[int, ...]:
    """Vertices by non-increasing degree, ties by ascending index."""
    return tuple(sorted(range(g.n), key=lambda v: (-g.degrees[v], v)))


def _planes(values: Sequence[int]) -> list[int]:
    """Bit-sliced counters: bit ``u`` of plane ``j`` is bit ``j`` of ``values[u]``."""
    return [
        sum(1 << u for u, value in enumerate(values) if value >> j & 1)
        for j in range(max(values, default=0).bit_length())
    ]


def _decrement(planes: list[int], mask: int) -> None:
    """Subtract 1 from every count in ``mask``; each must be positive."""
    borrow = mask
    for j, plane in enumerate(planes):
        if not borrow:
            return
        planes[j] = plane ^ borrow
        borrow &= ~plane


def _increment(planes: list[int], mask: int) -> None:
    """Add 1 to every count in ``mask``, growing a plane on overflow."""
    carry = mask
    for j, plane in enumerate(planes):
        if not carry:
            return
        planes[j] = plane ^ carry
        carry &= plane
    if carry:
        planes.append(carry)


def _keep_min(planes: list[int], candidates: int) -> int:
    """The members of ``candidates`` whose count is smallest."""
    for plane in reversed(planes):
        low = candidates & ~plane
        if low:
            candidates = low
    return candidates


def _keep_max(planes: list[int], candidates: int) -> int:
    """The members of ``candidates`` whose count is largest."""
    for plane in reversed(planes):
        high = candidates & plane
        if high:
            candidates = high
    return candidates


def smallest_last_order(g: TermGraph) -> tuple[int, ...]:
    """Degeneracy ordering: repeatedly move the vertex of smallest degree
    in the shrinking graph to the back (ties by ascending index); what
    remains at the front is processed first.

    Residual degrees are bit-sliced counters, so each of the n steps costs
    O(log n) bitset operations.
    """
    rows = g.rows
    remaining = (1 << g.n) - 1
    degree = _planes(g.degrees)
    order = [0] * g.n
    for position in range(g.n - 1, -1, -1):
        smallest = _keep_min(degree, remaining)
        bit = smallest & -smallest
        v = bit.bit_length() - 1
        order[position] = v
        remaining ^= bit
        _decrement(degree, rows[v] & remaining)
    return tuple(order)


def sequential_coloring(g: TermGraph, order: Sequence[int]) -> Coloring:
    """Greedy coloring along ``order``.

    The first vertex gets color 0; each later vertex gets the lowest color
    absent among its already-colored neighbors, opening a new color only
    when every existing one is blocked.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the graph's vertices")
    color_of = [0] * g.n
    class_masks: list[int] = []
    for v in order:
        row = g.rows[v]
        for c, members in enumerate(class_masks):
            if not members & row:
                break
        else:
            c = len(class_masks)
            class_masks.append(0)
        class_masks[c] |= 1 << v
        color_of[v] = c
    return Coloring(tuple(color_of), len(class_masks))


def dsatur_coloring(g: TermGraph) -> Coloring:
    """Saturation-driven coloring.

    Colors the largest-degree vertex first, then repeatedly the uncolored
    vertex adjacent to the most distinct colors (its saturation), breaking
    ties by larger degree within the uncolored subgraph, then by index;
    each gets the lowest color absent among its neighbors.

    Saturation and residual degree are bit-sliced counters, and ``near[c]``
    is the union of the rows of color class ``c``, so each of the n steps
    costs O(log n) bitset operations plus one test per color.
    """
    rows = g.rows
    color_of = [0] * g.n
    near: list[int] = []
    degree = _planes(g.degrees)
    saturation: list[int] = []
    uncolored = (1 << g.n) - 1
    while uncolored:
        chosen = _keep_max(degree, _keep_max(saturation, uncolored))
        bit = chosen & -chosen
        v = bit.bit_length() - 1
        for c, reach in enumerate(near):
            if not reach & bit:
                break
        else:
            c = len(near)
            near.append(0)
        color_of[v] = c
        uncolored ^= bit
        neighbors = rows[v] & uncolored
        _decrement(degree, neighbors)
        _increment(saturation, neighbors & ~near[c])
        near[c] |= rows[v]
    return Coloring(tuple(color_of), len(near))


def rlf_coloring(g: TermGraph) -> Coloring:
    """Recursive-largest-first coloring.

    Builds one color class at a time: seed with the largest-degree vertex
    of the uncolored subgraph, then, among uncolored vertices not adjacent
    to the class (candidate set), repeatedly add the one with the most
    neighbors among the excluded uncolored vertices, until no candidate
    remains.  Repeats on the rest of the graph with the next color.
    """
    n = g.n
    rows = g.rows
    color_of = [0] * n
    uncolored = (1 << n) - 1
    n_colors = 0
    while uncolored:
        seed = max(
            iter_bits(uncolored),
            key=lambda v: ((rows[v] & uncolored).bit_count(), -v),
        )
        class_mask = 1 << seed
        blocked = rows[seed] & uncolored  # uncolored vertices adjacent to the class
        candidates = uncolored & ~blocked & ~class_mask
        while candidates:
            v = max(
                iter_bits(candidates),
                key=lambda u: ((rows[u] & blocked).bit_count(), -u),
            )
            class_mask |= 1 << v
            blocked |= rows[v] & candidates
            candidates &= ~(rows[v] | (1 << v))
        for v in iter_bits(class_mask):
            color_of[v] = n_colors
        uncolored &= ~class_mask
        n_colors += 1
    return Coloring(tuple(color_of), n_colors)


class _MergeState:
    """Shared bookkeeping for the two merge-based schemes (DB, COSINE).

    Non-adjacent supervertices are merged (neighborhoods united) until the
    merged graph is complete; each surviving supervertex is one color.  A
    supervertex is identified by the smallest original index it contains,
    which merging into the smaller endpoint preserves.
    """

    def __init__(self, g: TermGraph):
        self.n = g.n
        self.active = (1 << g.n) - 1
        self.rows = list(g.rows)
        self.members = {v: 1 << v for v in range(g.n)}

    def non_neighbors(self, v: int) -> int:
        return self.active & ~self.rows[v] & ~(1 << v)

    def common_neighbors(self, u: int, v: int) -> int:
        return (self.rows[u] & self.rows[v] & self.active).bit_count()

    def merge(self, u: int, v: int) -> None:
        """Merge v into u (requires u < v): the union neighborhood."""
        bit_u, bit_v = 1 << u, 1 << v
        for w in iter_bits(self.rows[v]):
            self.rows[w] = (self.rows[w] & ~bit_v) | bit_u
        self.rows[u] = (self.rows[u] | self.rows[v]) & ~(bit_u | bit_v)
        self.rows[v] = 0
        self.members[u] |= self.members[v]
        del self.members[v]
        self.active ^= bit_v

    def is_complete(self) -> bool:
        return all(
            self.rows[v] == self.active & ~(1 << v) for v in iter_bits(self.active)
        )

    def to_coloring(self) -> Coloring:
        if not self.is_complete():
            raise AssertionError("merge process terminated on a non-complete graph")
        color_of = [0] * self.n
        for color, sv in enumerate(sorted(self.members)):
            for v in iter_bits(self.members[sv]):
                color_of[v] = color
        return Coloring(tuple(color_of), len(self.members))


def db_coloring(g: TermGraph) -> Coloring:
    """Pairwise-merge coloring, best pair globally.

    Repeatedly merges the non-adjacent supervertex pair with the most
    common neighbors (ties: lexicographically smallest pair) until the
    merged graph is complete; each supervertex is one color.

    The pair is found by lazy greedy evaluation over rows instead of a
    count of every pair.  ``bound[a]`` is an upper bound on the count of
    each pair ``(a, b)`` with ``b > a`` a non-neighbor of ``a`` (a partner);
    it starts at the degree of ``a``, which no count exceeds.  A heap pops
    the row of highest bound, smallest index first.  A row whose degree
    fell below its bound goes back at its degree; a row not yet rescanned
    this round is rescanned, its bound set to its exact best count (the
    first partner reaching it is kept), and goes back; a row already
    rescanned this round holds the winning pair.  That is exact: its count
    is at least every other row's bound, and a tied row of smaller index
    would have been popped, rescanned and returned first.

    Merging ``v`` into ``u`` changes the count of a pair avoiding both
    only by losing ``v`` and gaining ``u``, so it rises, by exactly 1, only
    when one endpoint was adjacent to ``u`` alone and the other to ``v``
    alone.  Hence a row adjacent to just one of them gains 1 on its bound
    when it has a partner adjacent to just the other, a row below ``u``
    folds in its fresh count with ``u``, and ``u`` restarts at its degree.
    No row ever gains a partner, so a row rescanned with none leaves the
    heap for good.
    """
    if g.n == 0:
        return Coloring((), 0)
    state = _MergeState(g)
    rows = state.rows
    bound = list(g.degrees)
    heap = [(-degree, a) for a, degree in enumerate(bound)]
    heapify(heap)
    partner = [0] * g.n
    scanned = [-1] * g.n  # the round in which each row was last rescanned
    merges = 0
    while heap:
        key, a = heap[0]
        if -key != bound[a]:
            heappop(heap)
            continue
        if scanned[a] == merges:
            u, v = a, partner[a]
            only_u, only_v = rows[u] & ~rows[v], rows[v] & ~rows[u]
            state.merge(u, v)
            merges += 1
            row_u = rows[u]
            bound[u] = row_u.bit_count()
            heapreplace(heap, (-bound[u], u))
            bound[v] = -1
            for side, other in ((only_u, only_v), (only_v, only_u)):
                for b in iter_bits(side):
                    if (other & ~rows[b]) >> (b + 1):
                        bound[b] += 1
                        heappush(heap, (-bound[b], b))
            for b in iter_bits(state.active & ~row_u & ((1 << u) - 1)):
                count = (rows[b] & row_u).bit_count()
                if count > bound[b]:
                    bound[b] = count
                    heappush(heap, (-count, b))
            continue
        row = rows[a]
        degree = row.bit_count()
        if degree < bound[a]:
            bound[a] = degree
            heapreplace(heap, (-degree, a))
            continue
        best = -1
        partners = state.active >> (a + 1) << (a + 1) & ~row
        while partners:
            bit_b = partners & -partners
            partners ^= bit_b
            count = (row & rows[bit_b.bit_length() - 1]).bit_count()
            if count > best:
                best = count
                partner[a] = bit_b.bit_length() - 1
                if count == degree:
                    break
        bound[a] = best
        scanned[a] = merges
        if best < 0:
            heappop(heap)
        else:
            heapreplace(heap, (-best, a))
    return state.to_coloring()


def cosine_coloring(g: TermGraph) -> Coloring:
    """Pairwise-merge coloring, chained from the first non-adjacent pair.

    Merges the lexicographically first non-adjacent pair, then keeps
    merging the freshly merged supervertex with whichever non-neighbor
    shares the most common neighbors with it (ties by index).  When the
    current supervertex has no non-neighbor left, starts over with the
    next first pair; stops when the merged graph is complete.
    """
    if g.n == 0:
        return Coloring((), 0)
    state = _MergeState(g)
    while True:
        first_pair = None
        for u in iter_bits(state.active):
            rest = state.non_neighbors(u) >> (u + 1) << (u + 1)
            if rest:
                first_pair = (u, (rest & -rest).bit_length() - 1)
                break
        if first_pair is None:
            break
        current = first_pair[0]
        state.merge(current, first_pair[1])
        while True:
            options = state.non_neighbors(current)
            if not options:
                break
            partner = max(
                iter_bits(options),
                key=lambda w: (state.common_neighbors(current, w), -w),
            )
            state.merge(current, partner)
    return state.to_coloring()


def cover_from_coloring(g_qwc: TermGraph, coloring: Coloring) -> CliqueCover:
    """Turn a proper coloring of the complement into a clique cover.

    Color classes become groups, ordered by their smallest member.  The
    classes are not checked here: a coloring that is not proper on the
    complement gives groups that are not cliques, which
    :func:`~qwcover.cover.validate_cover` reports.
    """
    if len(coloring.color_of) != g_qwc.n:
        raise ValueError("coloring does not match the graph's vertex count")
    groups = sorted((frozenset(vs) for vs in coloring.classes()), key=min)
    return CliqueCover(tuple(groups))

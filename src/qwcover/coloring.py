"""Graph-coloring solvers for the minimum clique cover.

A minimum clique cover of the QWC graph G is a minimum proper coloring of
its complement: vertices sharing a color are pairwise non-adjacent in the
complement, hence pairwise adjacent in G.  Everything here coloring the
complement therefore yields a cover through :func:`cover_from_coloring`.

All tie-breaking is by ascending vertex index (pairs lexicographically),
so every solver is deterministic; none of them uses randomness.

Smallest-last, DSATUR and RLF select on per-vertex counts (residual
degree, saturation) that they keep as bit-sliced counters over the row
bitsets: plane ``j`` holds bit ``j`` of every vertex's count, so updating
the counts of a whole neighborhood, or narrowing a candidate set to its
minimum or maximum count, costs O(log n) big-integer operations instead of
one Python call per vertex.  Each starts its residual degrees from a copy
of the graph's :attr:`~qwcover.graph.TermGraph.degree_planes`, built once
per graph.

A coloring is the list of its color classes as vertex bitmasks, color
``c`` at index ``c``.  RLF and COSINE grow one class at a time on the
graph's own rows through one loop, :func:`_grow_class`, from different
seeds: RLF's seed comes from its residual-degree counters.  Class growth
and DB choose through one candidate scan, :func:`_most_shared`.  Only DB
keeps a merged graph, because its rule is about merged supervertices;
COSINE only grows its current one, which is RLF's class.

DB picks its pair by lazy greedy evaluation (Minoux's accelerated greedy):
each row keeps an upper bound on the common-neighbor counts of its pairs,
and only rows whose bound could still beat the best exact count are
rescanned.  The rows sit in a bucket queue of bitmasks, one level per bound
value, and one more bitmask holds the rows rescanned since the last merge,
whose bounds are exact; the next row is the lowest bit of the highest
non-empty level.  A merge raises a pair's count by at most 1, and only for
pairs split across the two merged neighborhoods, so the bounds stay valid
at O(degree) upkeep per merge and the chosen pair is the one a full scan
would choose.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import TermGraph, iter_bits

__all__ = [
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


def input_order(g: TermGraph) -> tuple[int, ...]:
    """Vertices exactly as given, i.e. Hamiltonian input order."""
    return tuple(range(g.n))


def largest_first_order(g: TermGraph) -> tuple[int, ...]:
    """Vertices by non-increasing degree, ties by ascending index."""
    return tuple(sorted(range(g.n), key=lambda v: (-g.degrees[v], v)))


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
    degree = list(g.degree_planes)
    order = [0] * g.n
    for position in range(g.n - 1, -1, -1):
        smallest = _keep_min(degree, remaining)
        bit = smallest & -smallest
        v = bit.bit_length() - 1
        order[position] = v
        remaining ^= bit
        _decrement(degree, rows[v] & remaining)
    return tuple(order)


def sequential_coloring(g: TermGraph, order: Sequence[int]) -> list[int]:
    """Greedy coloring along ``order``.

    The first vertex gets color 0; each later vertex gets the lowest color
    absent among its already-colored neighbors, opening a new color only
    when every existing one is blocked.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the graph's vertices")
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
    return class_masks


def dsatur_coloring(g: TermGraph) -> list[int]:
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
    classes: list[int] = []
    near: list[int] = []
    degree = list(g.degree_planes)
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
            classes.append(0)
        classes[c] |= bit
        uncolored ^= bit
        neighbors = rows[v] & uncolored
        _decrement(degree, neighbors)
        _increment(saturation, neighbors & ~near[c])
        near[c] |= rows[v]
    return classes


def _most_shared(
    rows: Sequence[int], mask: int, candidates: int, limit: int
) -> tuple[int, int]:
    """``(count, one-bit mask)`` of the candidate whose row shares the most
    vertices with ``mask``, the smallest index on ties; ``(-1, 0)`` when
    there is no candidate.  The scan stops at a count equal to ``limit``,
    which must be at least every count (the size of ``mask`` always is).
    """
    best, pick = -1, 0
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        count = (rows[bit.bit_length() - 1] & mask).bit_count()
        if count > best:
            best, pick = count, bit
            if count == limit:
                break
    return best, pick


def _grow_class(rows: Sequence[int], uncolored: int, seed: int) -> int:
    """The color class grown from ``seed``, an independent set of uncolored
    vertices: the seed's vertices in index order, then RLF's picks until no
    candidate is left."""
    class_mask = blocked = 0  # blocked: uncolored vertices adjacent to the class
    candidates = uncolored
    bit = seed & -seed
    while bit:
        row = rows[bit.bit_length() - 1]
        class_mask |= bit
        blocked |= row & candidates
        candidates &= ~(row | bit)
        seed ^= bit
        bit = seed & -seed or _most_shared(rows, blocked, candidates, blocked.bit_count())[1]
    return class_mask


def rlf_coloring(g: TermGraph) -> list[int]:
    """Recursive-largest-first coloring.

    Builds one color class at a time (:func:`_grow_class`): seed with the
    largest-degree vertex of the uncolored subgraph (ties by index), then,
    among uncolored vertices not adjacent to the class (candidate set),
    repeatedly add the one with the most neighbors among the excluded
    uncolored vertices, until no candidate remains.  Repeats on the rest of
    the graph with the next color.

    Residual degrees are bit-sliced counters, lowered by each class
    member's uncolored neighbors, so picking a seed costs O(log n) bitset
    operations instead of a scan of the uncolored rows.
    """
    rows = g.rows
    classes: list[int] = []
    degree = list(g.degree_planes)
    uncolored = (1 << g.n) - 1
    while uncolored:
        seed = _keep_max(degree, uncolored)
        class_mask = _grow_class(rows, uncolored, seed & -seed)
        classes.append(class_mask)
        uncolored ^= class_mask
        members = class_mask if uncolored else 0  # the last class lowers no count
        while members:
            bit = members & -members
            members ^= bit
            neighbors = rows[bit.bit_length() - 1] & uncolored
            if neighbors:
                _decrement(degree, neighbors)
    return classes


def db_coloring(g: TermGraph) -> list[int]:
    """Pairwise-merge coloring, best pair globally.

    Repeatedly merges the non-adjacent supervertex pair with the most
    common neighbors (ties: lexicographically smallest pair) until the
    merged graph is complete; each supervertex is one color.

    The pair is found by lazy greedy evaluation over rows instead of a
    count of every pair.  ``bound[a]`` is an upper bound on the count of
    each pair ``(a, b)`` with ``b > a`` a non-neighbor of ``a`` (a partner);
    it starts at the degree of ``a``, which no count exceeds.  ``level[k]``
    is the bitmask of rows whose bound is ``k``, and the next row is the
    lowest bit of the highest non-empty level.  A row whose degree fell
    below its bound moves to its degree; a row not in ``exact`` (the rows
    rescanned since the last merge) is rescanned, its bound set to its
    exact best count (the first partner reaching it is kept, and one
    reaching the row's level ends the scan), and joins ``exact``; a row
    already in ``exact`` holds the winning pair.  That is exact: its count
    is at least every other row's bound, and a tied row of smaller index
    would have been taken, rescanned and returned first.

    Merging ``v`` into ``u`` changes the count of a pair avoiding both
    only by losing ``v`` and gaining ``u``, so it rises, by exactly 1, only
    when one endpoint was adjacent to ``u`` alone and the other to ``v``
    alone.  Hence a row adjacent to just one of them gains 1 on its bound
    when it has a partner adjacent to just the other, a row below ``u``
    folds in its fresh count with ``u``, and ``u`` is rescanned at once.
    No row ever gains a partner, so a row rescanned with none leaves every
    level for good.
    """
    # Merging v into u < v unites their rows in u and adds u to the rows of
    # v's other neighbors; the bit of v stays in those rows, so every read
    # of a row masks it with ``active``.
    rows = list(g.rows)
    active = (1 << g.n) - 1  # supervertices, each named by its smallest vertex
    members = [1 << v for v in range(g.n)]
    bound = list(g.degrees)
    # Every bound is below n: a degree is, every count is below n - 1, and a
    # merge raises a bound by 1 only from at most the winner's count.
    level = [0] * g.n  # level[k]: the rows whose bound is k
    for a, degree in enumerate(bound):
        level[degree] |= 1 << a
    top = max(bound, default=-1)  # no level above top holds a row
    partner = [0] * g.n  # as a one-bit mask
    exact = 0  # the rows rescanned since the last merge
    while top >= 0:
        at_top = level[top]
        if not at_top:
            top -= 1
            continue
        bit_a = at_top & -at_top
        level[top] = at_top ^ bit_a
        a = bit_a.bit_length() - 1
        if not exact & bit_a:
            row = rows[a] & active
            degree = row.bit_count()
            if degree < top:
                bound[a] = degree
                level[degree] |= bit_a
                continue
            count, partner[a] = _most_shared(rows, row, active >> (a + 1) << (a + 1) & ~row, top)
            # Back at top, a would be the lowest exact row there: the winner.
            if count < top:
                bound[a] = count
                if count >= 0:
                    level[count] |= bit_a
                exact |= bit_a
                continue
        u, bit_u, bit_v = a, bit_a, partner[a]
        v = bit_v.bit_length() - 1
        if bound[v] >= 0:
            level[bound[v]] ^= bit_v
            bound[v] = -1
        row_u, row_v = rows[u] & active, rows[v] & active
        only_u, only_v = row_u & ~row_v, row_v & ~row_u
        side = only_v
        while side:
            bit = side & -side
            side ^= bit
            rows[bit.bit_length() - 1] |= bit_u
        row_u = rows[u] = row_u | row_v
        rows[v] = 0
        members[u] |= members[v]
        active ^= bit_v
        for side, other in ((only_u, only_v), (only_v, only_u)):
            side &= (1 << other.bit_length()) - 1  # only these have a member of other above
            while side:
                bit = side & -side
                side ^= bit
                b = bit.bit_length() - 1
                if other & ~rows[b] > bit:
                    k = bound[b]
                    level[k] ^= bit
                    k += 1
                    level[k] |= bit
                    bound[b] = k
                    if k > top:
                        top = k
        lower = active & ~row_u & (bit_u - 1)
        while lower:
            bit = lower & -lower
            lower ^= bit
            b = bit.bit_length() - 1
            count = (rows[b] & row_u).bit_count()
            if count > bound[b]:
                level[bound[b]] ^= bit
                level[count] |= bit
                bound[b] = count
                if count > top:
                    top = count
        count, partner[u] = _most_shared(
            rows, row_u, active >> (u + 1) << (u + 1) & ~row_u, row_u.bit_count())
        bound[u] = count
        if count >= 0:
            level[count] |= bit_u
            if count > top:
                top = count
        exact = bit_u
    if any(rows[v] & active != active & ~(1 << v) for v in iter_bits(active)):
        raise AssertionError("merge process terminated on a non-complete graph")
    return [members[sv] for sv in iter_bits(active)]


def cosine_coloring(g: TermGraph) -> list[int]:
    """Pairwise-merge coloring, chained from the first non-adjacent pair.

    Merges the lexicographically first non-adjacent pair, then keeps
    merging the freshly merged supervertex with whichever non-neighbor
    shares the most common neighbors with it (ties by index).  When the
    current supervertex has no non-neighbor left, starts over with the
    next first pair; stops when the merged graph is complete.

    That is RLF with another start, computed one class at a time on
    ``g.rows``.  Merging only adds adjacency, so a finished supervertex
    stays adjacent to every other, and every active one but the current
    one is a single vertex.  The current one's non-neighbors are RLF's
    candidates, and its common neighbors with a candidate ``w`` are the
    finished supervertices, the same for every ``w``, plus ``w``'s
    neighbors among RLF's blocked vertices: each pick is RLF's.  Only the
    start differs: the lowest uncolored vertex, then its lowest candidate.
    """
    rows = g.rows
    classes: list[int] = []
    uncolored = (1 << g.n) - 1
    while uncolored:
        low = uncolored & -uncolored
        later = uncolored & ~(rows[low.bit_length() - 1] | low)
        classes.append(_grow_class(rows, uncolored, low | later & -later))
        uncolored ^= classes[-1]
    return classes


def cover_from_coloring(classes: Sequence[int]) -> tuple[int, ...]:
    """Turn a proper coloring of the complement into a clique cover.

    Color classes (vertex bitmasks) become groups, ordered by their
    smallest member.  They are not checked here: classes that do not
    partition the vertices, or that hold an edge of the complement, give a
    cover that :func:`~qwcover.cover.validate_cover` rejects.
    """
    return tuple(sorted(classes, key=lambda mask: mask & -mask))

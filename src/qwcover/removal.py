"""Cover construction by repeated clique extraction.

Two clique finders back the two removal covers, ``bkt`` and ``ramsey``,
which :func:`~qwcover.solvers.solve_mcc` runs: an exact branch-and-bound
maximum-clique search with greedy-coloring bounds (worst-case exponential,
guarded by a budget of colored vertices that one cover spends across all
its extractions) and a polynomial recursive pivot construction that
returns a maximal clique (:func:`ramsey_clique`).  Extracting a clique,
removing it, and repeating yields an approximate minimum clique cover;
even with the exact finder the result can exceed the true minimum.

Removal never rebuilds the graph: the cover keeps one ``alive`` bitmask
over its rows, and each finder searches the subgraph it induces, reading
each residual neighborhood as ``rows[v] & alive`` and each residual
non-neighborhood as ``alive & other[v]``, where ``other`` holds the rows of
the graph's cached :meth:`~TermGraph.complement` (every vertex but ``v``
and its neighbors).  So no search loop complements a mask.  Each finder
returns its clique as a bitmask, which the cover records as a group and
clears from ``alive``.

The exact finder searches the graph relabelled once per cover by ascending
degree, so that the highest degree is colored and branched on first.  The
relabelled rows come from one bit-matrix transpose
(:func:`~qwcover.graph._planes`) of the rows taken in degree order: since
adjacency is symmetric, column ``k`` of that matrix is row ``k`` in the new
labels.  The finder colors the candidates of every search node greedily
into class bitmasks (as in the bitset algorithm BBMC of San Segundo et
al.) and returns the first maximum clique in its search's depth-first
order, one search per extraction.  That search stops at the first clique
that reaches an upper bound on the clique size, the root coloring's class
count or the previous extraction's size, so where the clique size holds it
skips the nodes that would only prove the clique maximum.

The polynomial finder evaluates the recursive pivot construction R of
Boppana and Halldórsson as a branch and bound that returns exactly R's
clique.  R(m) is the first largest of the chain cliques
A_i = {v_i} + R(m_i & N(v_i)), and |A_i| is at most one more than its
branch ``m_i & N(v_i)``.  Each frame of the construction carries ``need``,
the size its result must reach to matter to its parent (0 at the root),
and keeps ``floor = max(best size so far, need - 1)``; a pivot whose branch
has fewer than ``floor`` vertices cannot win and is skipped, and a child
frame's ``need`` is its parent's ``floor``.  A frame returns R(m) exactly
whenever |R(m)| reaches its ``need``, so the root returns R exactly, and
a frame's pivot chain ends once its candidates number at most ``floor``.

``ramsey``'s cover also stops walking terms that can no longer join a
group.  A root pivot with no alive neighbor stays isolated as terms leave,
and its one-term chain clique never beats the two or more of the chain's
first pivot that has a neighbor, so later extractions search without it.
Once an extraction finds no clique of two, no alive term has a neighbor,
and the alive terms close the cover as single-term groups in ascending
index, the order in which repeated extraction would return them.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import index

from .graph import TermGraph, _planes, iter_bits

__all__ = ["DEFAULT_BKT_BUDGET", "BudgetExceededError"]

# bkt's work is counted in colored vertices: each greedy coloring (one at
# the root of each search, one per search node) spends its candidate count,
# one ``available &= other[v]`` step of :func:`_color_classes` each.  One
# unbudgeted cover per input (Python 3.11, shared 2-vCPU host; random n: n
# random words of weight <= 4; jw/bk-q: the molecular words of q qubits):
#   input          terms  nodes          colored        s            s/node     s/colored
#   random 400       400  3,027          1.67e5         0.043        1.4e-5     2.6e-7
#   random 1k      1,000  27,132         4.04e6         1.03         3.8e-5     2.5e-7
#   jw-12 / bk-12  1,818  5,330 / 4,497  3.53 / 2.90e5  0.085/0.070  1.6e-5     2.4e-7
#   jw-14 / bk-14  3,381  20,593/13,768  2.07 / 1.17e6  0.57 / 0.41  2.8/3.0e-5 2.8/3.5e-7
#   random 2k      2,000  446,416        1.39e8         36.2         8.1e-5     2.6e-7
#   jw-16          5,792  189,563        3.60e7         14.7         7.8e-5     4.1e-7
# Time per colored vertex holds within 2.4-4.1e-7 s while time per node
# spreads 6x, so the budget bounds a cover's time at any size.  Random 1k
# colors 4.0-5.5e6 vertices on seeds 1000-1004: 3e7 leaves those 5x spare
# (jw/bk-14 15-25x) and stops random 2k and jw-16 after about 8-12 s.
DEFAULT_BKT_BUDGET = 30_000_000


class BudgetExceededError(RuntimeError):
    """Exact search colored more vertices than its budget allows.

    Nothing falls back to another finder: under ``--algorithm all`` the
    CLI reports the error in place of the ``bkt`` cover, and otherwise it
    exits with status 3.
    """


def _color_classes(other: tuple[int, ...], candidates: int) -> list[int]:
    """Greedy coloring of the candidate set into class bitmasks, each class
    grown from the highest label down: ``other[v]`` is every vertex but
    ``v`` and its neighbors, so ``available &= other[v]`` keeps what may
    still join ``v``'s class."""
    classes: list[int] = []
    uncolored = candidates
    while uncolored:
        available = uncolored
        members = 0
        while available:
            v = available.bit_length() - 1
            members |= 1 << v
            available &= other[v]
        classes.append(members)
        uncolored ^= members
    return classes


def _search(g: TermGraph, candidates: int, bound: int, budget: int, spent: int) -> tuple[int, int]:
    """The first maximum clique among the nonempty ``candidates`` of
    ``g`` in depth-first order, as a bitmask, where ``bound`` is an upper
    bound on its size, and the colored vertices spent so far: ``spent``
    plus those of this search.

    Candidates are greedily colored into class masks at every node
    (:func:`_color_classes`), and the lowest vertex of the last class is
    visited next, so the class count bounds what a node can still add.
    A node whose class count cannot beat the incumbent is pruned.  So
    the labels fix the whole search, and a clique never replaces one of
    equal size.  Each node's candidates play the part of ``alive`` in
    the pair ``rows[v] & alive`` (a child's candidates) and
    ``alive & other[v]`` (what may still join ``v``'s class), where
    ``other`` holds the rows of ``g``'s complement, so no mask is
    complemented inside the loop.  The search stops at the first clique
    that reaches ``bound`` or the root coloring's class count: that
    clique is maximum, and it is the one the search run to the end would
    return.

    Raises:
        BudgetExceededError: a coloring would take ``spent`` past ``budget``.
    """
    rows, other = g.rows, g.complement().rows
    spent += candidates.bit_count()
    if spent > budget:
        raise _exceeded(budget)
    classes = _color_classes(other, candidates)
    bound = min(bound, len(classes))
    # Frame: [run_mask, run_size, color classes still to visit,
    # remaining candidates].  Every frame starts with a class.
    stack: list[list] = [[0, 0, classes, candidates]]
    best_mask = 0
    best_size = 0
    while stack:
        frame = stack[-1]
        run_mask, run_size, classes, remaining = frame
        if run_size + len(classes) <= best_size:
            stack.pop()
            continue
        members = classes[-1]
        bit = members & -members
        if members == bit:
            classes.pop()
        else:
            classes[-1] = members ^ bit
        frame[3] = remaining ^ bit
        extended = remaining & rows[bit.bit_length() - 1]
        if extended:
            spent += extended.bit_count()
            if spent > budget:
                raise _exceeded(budget)
            classes = _color_classes(other, extended)
            stack.append([run_mask | bit, run_size + 1, classes, extended])
        elif run_size + 1 > best_size:
            best_mask = run_mask | bit
            best_size = run_size + 1
            if best_size >= bound:
                break
    return best_mask, spent


def _exceeded(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"maximum-clique search exceeded {budget} colored vertices")


def _degree_order(g: TermGraph) -> tuple[TermGraph, Callable[[int], int]]:
    """``g`` relabelled by ascending degree, ties by label, with the map
    of a relabelled mask back to ``g``'s labels: vertex ``order[j]``
    becomes ``j``, so the highest degree gets the highest label and is
    colored and branched on first.

    Bit ``u`` of column ``k`` of the rows taken in degree order is the
    edge ``(order[u], k)``, so, adjacency being symmetric, column ``k`` is
    row ``k`` relabelled, and one transpose (:func:`~qwcover.graph._planes`)
    relabels every row.
    """
    order = sorted(range(g.n), key=g.degrees.__getitem__)
    columns = _planes([g.rows[v] for v in order], g.n)

    def unlabel(mask: int) -> int:
        return sum(1 << order[j] for j in iter_bits(mask))

    return TermGraph([columns[v] for v in order]), unlabel


def _ramsey_clique_mask(g: TermGraph, alive: int) -> tuple[int, int]:
    """Recursive pivot construction as a branch and bound on an explicit
    stack, and the root pivots found isolated on the way.

    R(m) pivots on the lowest-index candidate v of m and returns the larger
    of {v} + R(m & N(v)) and R(m minus v and N(v)), preferring the pivot
    branch on ties.  Unrolling the second branch, R(m) is the first largest
    of the chain cliques A_i = {v_i} + R(m_i & N(v_i)) along the chain
    m_0 = m, m_(i+1) = m_i & other[v_i], the complement's row.  Each frame
    walks that chain as a loop, so the stack grows only along pivot
    branches.

    A frame also carries ``need``, the size its result must reach to
    matter to its parent, and keeps ``floor = max(best size, need - 1)``:
    a later A_i matters only if it is larger than ``floor``.  Since
    |A_i| <= 1 + |m_i & N(v_i)|, a pivot whose branch has fewer than
    ``floor`` vertices is skipped (its chain step still runs), and the
    chain ends once ``m_i`` has at most ``floor`` vertices, since every
    later branch lies inside ``m_i`` minus its pivot.  A branch of at most
    one vertex is its own R and is settled without a frame; any other gets
    a child frame whose ``need`` is ``floor``.  Invariant: a frame returns
    R(m) exactly whenever |R(m)| >= ``need``, and otherwise some clique
    smaller than ``need``.  The root's ``need`` is 0, so it returns
    R(alive) exactly.

    The second result holds each skipped root pivot with no neighbor in
    ``alive``: such a vertex stays without one while vertices only leave
    ``alive``.
    """
    rows, other = g.rows, g.complement().rows
    # Frame: [candidates left, best clique, its size, need, pending pivot].
    stack: list[list[int]] = [[alive, 0, 0, 0, 0]]
    clique = isolated = 0
    while stack:
        frame = stack[-1]
        left, best, size, need, pivot = frame
        if pivot:
            # ``clique`` is what the pending pivot's branch returned.
            clique |= pivot
            if clique.bit_count() > size:
                best, size = clique, clique.bit_count()
        floor = max(size, need - 1)
        while left.bit_count() > floor:
            pivot = left & -left
            v = pivot.bit_length() - 1
            inner = left & rows[v]
            left &= other[v]
            k = inner.bit_count()
            if k < floor:
                if not (k or len(stack) > 1 or rows[v] & alive):
                    isolated |= pivot
                continue
            if k <= 1:
                best = pivot | inner
                size = floor = k + 1
                continue
            frame[:] = left, best, size, need, pivot
            stack.append([inner, 0, 0, floor, 0])
            break
        else:
            clique = best
            stack.pop()
    return clique, isolated


def ramsey_clique(g: TermGraph, alive: int) -> tuple[int, int]:
    """Maximal clique in polynomial time, as a bitmask (0 when no vertex is
    alive), and alive vertices found to have no alive neighbor.

    Searches the subgraph induced by the ``alive`` bitmask.  The recursive
    pivot construction can return a clique that is not maximal, so the
    result is greedily extended (ascending index over the alive vertices)
    until no alive vertex is adjacent to all members: the members' common
    neighbors among the alive vertices, narrowed by each vertex added, give
    the next one as their lowest bit.  The isolated vertices are those
    :func:`_ramsey_clique_mask` met as root pivots, not all of them.
    """
    rows = g.rows
    clique, isolated = _ramsey_clique_mask(g, alive)
    common = alive
    for v in iter_bits(clique):
        common &= rows[v]
    while common:
        low = common & -common
        clique |= low
        common &= rows[low.bit_length() - 1]
    return clique, isolated


def _ramsey_cover(g: TermGraph) -> tuple[int, ...]:
    """``ramsey``'s cover, as group bitmasks in extraction order: the
    :func:`ramsey_clique` of the alive vertices, cleared from the alive
    mask, until no vertex is alive.

    With the same groups (the module docstring says why): the vertices
    that :func:`ramsey_clique` reports isolated are left out of later
    searches, and once a search finds no clique of two, the alive vertices
    close the cover one per group, in ascending index.
    """
    groups: list[int] = []
    alive = searched = (1 << g.n) - 1
    while searched:
        clique, isolated = ramsey_clique(g, searched)
        if not clique & clique - 1:
            break
        groups.append(clique)
        alive ^= clique
        searched ^= clique | isolated
    groups.extend(1 << v for v in iter_bits(alive))
    return tuple(groups)


def _bkt_cover(g: TermGraph, budget: int) -> tuple[int, ...]:
    """``bkt``'s cover, as group bitmasks in extraction order: the first
    maximum clique of the alive vertices in :func:`_search`'s order on
    the degree-ordered graph, cleared from the alive mask, until no vertex
    is alive.  One budget of colored vertices spans every extraction, and
    its error says how many groups came before it and how many terms they
    cover."""
    if isinstance(budget, bool):
        raise TypeError(f"budget must be an integer, not a bool: {budget}")
    if index(budget) < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    groups: list[int] = []
    alive = (1 << g.n) - 1
    degree, unlabel = _degree_order(g)
    # Each alive set lies inside the last one, so the last clique's size
    # bounds the next clique.
    size = g.n
    spent = 0
    try:
        while alive:
            clique, spent = _search(degree, alive, size, budget, spent)
            groups.append(unlabel(clique))
            alive ^= clique
            size = clique.bit_count()
    except BudgetExceededError as exc:
        covered = g.n - alive.bit_count()
        raise BudgetExceededError(
            f"{exc} after {len(groups)} groups covering {covered} of {g.n} terms"
        ) from None
    return tuple(groups)

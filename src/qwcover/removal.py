"""Cover construction by repeated clique extraction.

Two clique finders are provided: an exact branch-and-bound maximum-clique
search with greedy-coloring bounds (worst-case exponential, guarded by a
node budget) and a polynomial recursive pivot construction that returns a
maximal clique.  Extracting a clique, removing it, and repeating yields an
approximate minimum clique cover; even with the exact finder the result
can exceed the true minimum.

Removal never rebuilds the graph: the cover keeps one ``alive`` bitmask
over the original rows, and both finders search the subgraph it induces,
reading each residual neighborhood as ``rows[v] & alive`` and each residual
non-neighborhood as ``alive & other[v]``, where ``other`` holds the rows of
the graph's cached :meth:`~TermGraph.complement` (every vertex but ``v`` and
its neighbors).
So no search loop complements a mask.  Vertices keep their labels, so every
pivot, color order and tie-break is the one a relabelled induced subgraph
would give.  Each finder returns its clique as a bitmask, which the cover
records as a group and clears from ``alive``.

The exact finder colors the candidates of every search node greedily into
class bitmasks (as in the bitset algorithm BBMC of San Segundo et al.),
and it returns the first maximum clique in its search's depth-first order
without running that search to the end, where most of its nodes would go
to proving the clique maximum; :func:`max_clique_bkt` lists its three
steps.
"""

from __future__ import annotations

from collections.abc import Callable
from contextvars import ContextVar
from functools import cached_property
from operator import index, itemgetter

from .cover import Heuristic
from .graph import TermGraph, iter_bits

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "BudgetExceededError",
    "clique_removal_cover",
    "max_clique_bkt",
    "ramsey_clique",
]

DEFAULT_NODE_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Exact search expanded more nodes than allowed.

    Nothing falls back to another finder: under ``--algorithm all`` the
    CLI reports the error in place of the ``bkt`` cover, and otherwise it
    exits with status 3.
    """


def _check_budget(node_budget: int) -> None:
    if index(node_budget) < 0:
        raise ValueError(f"node budget must be at least 0, got {node_budget}")


def _alive_mask(g: TermGraph, alive: int | None) -> int:
    full = (1 << g.n) - 1
    if alive is not None and alive & ~full:
        raise ValueError("alive mask references vertices outside the graph")
    return full if alive is None else alive


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


class _Search:
    """Branch and bound over bitset rows; its runs share one node budget."""

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        self.nodes = 0

    def run(
        self, g: TermGraph, candidates: int, best_size: int, bound: int, cap: int | None = None
    ) -> tuple[int, int, bool]:
        """Search the nonempty ``candidates`` of ``g`` for a clique larger
        than ``best_size``; ``other`` holds the rows of ``g``'s complement.

        Candidates are greedily colored into class masks at every node
        (:func:`_color_classes`), and the lowest vertex of the last class is
        visited next, so the class count bounds what a node can still add.
        A node whose class count cannot beat the incumbent is pruned.  So
        the labels fix the whole search, and a clique never replaces one of
        equal size.  Each node's candidates play the part of ``alive`` in
        the pair ``rows[v] & alive`` (a child's candidates) and
        ``alive & other[v]`` (what may still join ``v``'s class), so no mask
        is complemented inside the loop.  The search stops at the first clique
        that reaches ``bound`` or the root coloring's class count, both
        upper bounds on the clique size.

        Returns the clique mask (0 if none beats ``best_size``), its size
        (else ``best_size``), and False if the search stopped after ``cap``
        nodes of this run without finishing.
        """
        rows, other = g.rows, g.complement().rows
        nodes = self.nodes
        limit = self.node_budget if cap is None else min(self.node_budget, nodes + cap)
        if nodes == limit:
            raise self._exceeded()
        classes = _color_classes(other, candidates)
        bound = min(bound, len(classes))
        # Frame: [run_mask, run_size, color classes still to visit,
        # remaining candidates].  Every frame starts with a class.
        stack: list[list] = [[0, 0, classes, candidates]]
        nodes += 1
        best_mask = 0
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
                if nodes == limit:
                    self.nodes = nodes
                    if nodes == self.node_budget:
                        raise self._exceeded()
                    return best_mask, best_size, False
                nodes += 1
                classes = _color_classes(other, extended)
                stack.append([run_mask | bit, run_size + 1, classes, extended])
            elif run_size + 1 > best_size:
                best_mask = run_mask | bit
                best_size = run_size + 1
                if best_size >= bound:
                    break
        self.nodes = nodes
        return best_mask, best_size, True

    def first_clique(self, cover: _Cover, candidates: int, size: int) -> int:
        """The first clique of ``size`` vertices in the depth-first order of
        :meth:`run` on the cover's graph, where ``size`` is the clique
        number of ``candidates``.

        Walks down that order one vertex at a time, entering a child only
        if its candidates hold a clique of the size still needed, which
        :meth:`run` on the degree order decides.  Children are tried in the
        search's order (the classes from the last, each from its lowest
        vertex), so the first one entered holds the search's first such
        clique, and the walk never backs up.  Each step down counts one
        node.
        """
        rows, other = cover.graph.rows, cover.graph.complement().rows
        degree, relabel = cover.degree_order
        clique = 0
        for need in range(size - 1, -1, -1):
            if self.nodes == self.node_budget:
                raise self._exceeded()
            self.nodes += 1
            remaining = candidates
            classes = reversed(_color_classes(other, candidates))
            for v in [u for members in classes for u in iter_bits(members)]:
                candidates = remaining & rows[v]
                remaining ^= 1 << v
                if not need:
                    break
                if candidates.bit_count() >= need:
                    _, found, _ = self.run(degree, relabel(candidates), need - 1, need)
                    if found == need:
                        break
            clique |= 1 << v
        return clique

    def _exceeded(self) -> BudgetExceededError:
        return BudgetExceededError(f"maximum-clique search exceeded {self.node_budget} nodes")


class _Cover:
    """What consecutive BKT extractions from one graph share: its degree
    order, built on first need, and the last clique size.  Each alive set
    lies inside the last one, so that size bounds the next clique."""

    def __init__(self, g: TermGraph):
        self.graph = g
        self.size = g.n

    @cached_property
    def degree_order(self) -> tuple[TermGraph, Callable[[int], int]]:
        """The graph relabelled by ascending degree, ties by label, and the
        relabelling of a mask: vertex ``order[j]`` becomes ``j``, so the
        highest degree gets the highest label and is colored and branched
        on first."""
        g = self.graph
        order = sorted(range(g.n), key=g.degrees.__getitem__)
        # ``format(mask, "0nb")`` lists labels n-1 down to 0; new label j
        # reads old label order[j], so pick those characters from the top.
        width = f"0{g.n}b"
        pick = itemgetter(*[g.n - 1 - order[j] for j in range(g.n - 1, -1, -1)])

        def relabel(mask: int) -> int:
            return int("".join(pick(format(mask, width))), 2)

        return TermGraph([relabel(g.rows[v]) for v in order]), relabel


# The BKT cover clique_removal_cover is building, so that each of its
# max_clique_bkt calls reuses what the previous ones computed.
_cover: ContextVar[_Cover | None] = ContextVar("qwcover_removal_cover", default=None)


def max_clique_bkt(
    g: TermGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, alive: int | None = None
) -> int:
    """Exact maximum clique via coloring branch and bound, as a bitmask.

    Searches the subgraph induced by the ``alive`` bitmask (default: every
    vertex) and returns the first maximum clique in the depth-first order
    of the search described in :meth:`_Search.run`, so ties between maximum
    cliques always resolve the same way.  That search, run to the end,
    spends most of its nodes proving that the clique it holds is maximum,
    so the clique is found in up to three steps:

    1. The search, stopped at the first clique that reaches an upper bound
       on the clique number: the root coloring's color count, or inside
       :func:`clique_removal_cover` the previous extraction's size.  That
       clique is maximum, and a clique never replaces one of equal size, so
       it is the one the full search returns.  This step may expand one
       node per alive vertex.
    2. Otherwise the same search on the graph relabelled by ascending
       degree (built once per cover), so that the highest degree is colored
       and branched on first, finds the clique number ω.  It starts from
       the size step 1 reached and also stops at the upper bound.
    3. If step 1 stopped below ω, :meth:`_Search.first_clique` walks down
       the search's own order and enters only children that hold a clique
       of the size still needed, which the degree-ordered search decides.
       A child is passed over only when it holds none, and children come in
       the same order, so the walk ends at the full search's first ω-clique.

    The node budget counts every node of all three steps.  The search runs
    on an explicit stack, so clique size is not limited by the
    interpreter's recursion limit.

    Raises:
        TypeError: ``node_budget`` is not an integer.
        ValueError: ``node_budget`` is negative, or no vertex is alive.
        BudgetExceededError: more than ``node_budget`` search nodes.
    """
    _check_budget(node_budget)
    alive = _alive_mask(g, alive)
    if not alive:
        raise ValueError("maximum clique of an empty graph is undefined")
    cover = _cover.get()
    if cover is None or cover.graph is not g:
        cover = _Cover(g)
    search = _Search(node_budget)
    clique, size, finished = search.run(g, alive, 0, cover.size, cap=alive.bit_count())
    if not finished:
        degree, relabel = cover.degree_order
        _, omega, _ = search.run(degree, relabel(alive), size, cover.size)
        if omega > size:
            clique = search.first_clique(cover, alive, omega)
            size = omega
    cover.size = size
    return clique


def _ramsey_clique_mask(g: TermGraph, alive: int) -> int:
    """Recursive pivot construction, evaluated with an explicit stack.

    R(m) pivots on the lowest-index candidate v of m and returns the larger
    of {v} + R(m & N(v)) and R(m minus v and N(v)), preferring the pivot
    branch on ties.  Unrolling the second branch, R(m) is the first largest
    of the cliques {v_i} + R(m_i & N(v_i)) along the chain m_0 = m,
    m_(i+1) = m_i & other[v_i], the complement's row.  Each frame walks
    that chain as a loop, holding [candidates left, best clique so far,
    pending pivot bit], so the stack grows only along pivot branches.
    """
    rows, other = g.rows, g.complement().rows
    stack: list[list[int]] = [[alive, 0, 0]]
    clique = 0
    while stack:
        frame = stack[-1]
        if frame[2]:
            # ``clique`` is R of the pending pivot's neighborhood.
            clique |= frame[2]
            if clique.bit_count() > frame[1].bit_count():
                frame[1] = clique
        left = frame[0]
        if not left:
            clique = frame[1]
            stack.pop()
            continue
        pivot = left & -left
        v = pivot.bit_length() - 1
        frame[0] = left & other[v]
        frame[2] = pivot
        stack.append([left & rows[v], 0, 0])
    return clique


def ramsey_clique(g: TermGraph, *, alive: int | None = None) -> int:
    """Maximal clique in polynomial time, as a bitmask (0 when no vertex is
    alive).

    Searches the subgraph induced by the ``alive`` bitmask (default: every
    vertex).  The recursive pivot construction can return a clique that is
    not maximal, so the result is greedily extended (ascending index over
    the alive vertices) until no alive vertex is adjacent to all members:
    the members' common neighbors among the alive vertices, narrowed by
    each vertex added, give the next one as their lowest bit.
    """
    alive = _alive_mask(g, alive)
    rows = g.rows
    clique = _ramsey_clique_mask(g, alive)
    common = alive
    for v in iter_bits(clique):
        common &= rows[v]
    while common:
        low = common & -common
        clique |= low
        common &= rows[low.bit_length() - 1]
    return clique


def clique_removal_cover(
    g: TermGraph,
    finder: Heuristic = Heuristic.BKT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...]:
    """Cover by repeated clique extraction, as group bitmasks.

    Finds a clique among the alive vertices with the selected finder,
    records it, clears its vertices from the alive mask, and repeats until
    no vertex is alive.  Groups are reported in extraction order.

    Raises:
        TypeError: ``finder`` is ``BKT`` and ``node_budget`` is no integer.
        ValueError: ``finder`` is not a clique-removal method, or it is
            ``BKT`` and ``node_budget`` is negative.
        BudgetExceededError: propagated from the exact finder.
    """
    if finder not in (Heuristic.BKT, Heuristic.RAMSEY):
        raise ValueError(f"not a clique-removal method: {finder}")
    if finder is Heuristic.BKT:
        _check_budget(node_budget)
    groups: list[int] = []
    alive = (1 << g.n) - 1
    token = _cover.set(_Cover(g) if finder is Heuristic.BKT else None)
    try:
        while alive:
            if finder is Heuristic.BKT:
                clique = max_clique_bkt(g, node_budget, alive=alive)
            else:
                clique = ramsey_clique(g, alive=alive)
            groups.append(clique)
            alive ^= clique
    finally:
        _cover.reset(token)
    return tuple(groups)

"""Cover construction by repeated clique extraction.

Two clique finders are provided: an exact branch-and-bound maximum-clique
search with greedy-coloring bounds (worst-case exponential, guarded by a
node budget) and a polynomial recursive pivot construction that returns a
maximal clique.  Extracting a clique, removing it, and repeating yields an
approximate minimum clique cover; even with the exact finder the result
can exceed the true minimum.

Removal never rebuilds the graph: the cover keeps one ``alive`` bitmask
over the original rows, and both finders search the subgraph it induces,
reading each residual neighborhood as ``rows[v] & alive``.  Vertices keep
their labels, so every pivot, color order and tie-break is the one a
relabelled induced subgraph would give.

The exact finder returns the first maximum clique in its search's
depth-first order without running that search to the end, where most of
its nodes would go to proving the clique maximum.  Each extraction takes
up to three steps, and the node budget counts the nodes of all of them:

1. The search, stopped at the first clique that reaches an upper bound on
   the clique number (its root coloring's color count, or the previous
   extraction's size) or after one node per alive vertex.  A clique at
   the bound is maximum, and the search never replaces a clique with one
   of equal size, so it is the one the full search returns.
2. Otherwise the same search on rows relabelled once per cover, highest
   degree first, finds the clique number ω.
3. If step 1 stopped below ω, a walk down the search's own order enters
   only the children that hold an ω-clique, as the relabelled search
   decides; the first such child holds the full search's first ω-clique.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import cached_property
from operator import itemgetter

from .cover import CliqueCover, Heuristic
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

    The instance is too hard for exact search under the configured budget;
    callers should fall back to the polynomial finder.
    """


def _alive_mask(g: TermGraph, alive: int | None) -> int:
    full = (1 << g.n) - 1
    if alive is not None and alive & ~full:
        raise ValueError("alive mask references vertices outside the graph")
    return full if alive is None else alive


def _color_order(rows: tuple[int, ...], candidates: int) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set, each class built from the
    highest label down; vertices come out grouped by color class, so
    position bounds are non-decreasing."""
    order: list[tuple[int, int]] = []
    uncolored = candidates
    color = 0
    while uncolored:
        color += 1
        available = uncolored
        while available:
            v = available.bit_length() - 1
            bit = 1 << v
            order.append((v, color))
            uncolored ^= bit
            available &= ~(bit | rows[v])
    return order


class _Search:
    """Branch and bound over bitset rows; its runs share one node budget."""

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        self.nodes = 0

    def run(
        self,
        rows: tuple[int, ...],
        candidates: int,
        best_size: int,
        bound: int,
        cap: int | None = None,
    ) -> tuple[int, int, bool]:
        """Search the nonempty ``candidates`` for a clique larger than
        ``best_size``.

        Candidates are greedily colored at every node (:func:`_color_order`)
        and visited from the end of that order, largest bound first; a
        vertex whose color bound cannot beat the incumbent prunes the rest
        of its node.  So the labels fix the whole search, and a clique never
        replaces one of equal size.  The search stops at the first clique
        that reaches ``bound`` or the root coloring's color count, both
        upper bounds on the clique size.

        Returns the clique mask (0 if none beats ``best_size``), its size
        (else ``best_size``), and False if the search stopped after ``cap``
        nodes of this run without finishing.
        """
        nodes = self.nodes
        limit = self.node_budget if cap is None else min(self.node_budget, nodes + cap)
        if nodes == limit:
            raise self._exceeded()
        order = _color_order(rows, candidates)
        bound = min(bound, order[-1][1])
        # Frame: [run_mask, run_size, color order still to visit, remaining
        # candidates].
        stack: list[list] = [[0, 0, order, candidates]]
        nodes += 1
        best_mask = 0
        while stack:
            frame = stack[-1]
            run_mask, run_size, order, remaining = frame
            if not order or run_size + order[-1][1] <= best_size:
                stack.pop()
                continue
            v, _ = order.pop()
            bit = 1 << v
            frame[3] = remaining ^ bit
            extended = remaining & rows[v]
            if extended:
                if nodes == limit:
                    self.nodes = nodes
                    if nodes == self.node_budget:
                        raise self._exceeded()
                    return best_mask, best_size, False
                nodes += 1
                stack.append([run_mask | bit, run_size + 1, _color_order(rows, extended), extended])
            elif run_size + 1 > best_size:
                best_mask = run_mask | bit
                best_size = run_size + 1
                if best_size >= bound:
                    break
        self.nodes = nodes
        return best_mask, best_size, True

    def first_clique(
        self, rows: tuple[int, ...], degree_order: _DegreeOrder, candidates: int, size: int
    ) -> int:
        """The first clique of ``size`` vertices in the depth-first order of
        :meth:`run` on ``rows``, where ``size`` is the clique number of
        ``candidates``.

        Walks down that order one vertex at a time, entering a child only
        if its candidates hold a clique of the size still needed, which
        :meth:`run` on the degree order decides.  Children are tried in the
        search's order, so the first one entered holds the search's first
        such clique, and the walk never backs up.  Each step down counts
        one node.
        """
        clique = 0
        for need in range(size - 1, -1, -1):
            if self.nodes == self.node_budget:
                raise self._exceeded()
            self.nodes += 1
            remaining = candidates
            for v, _ in reversed(_color_order(rows, candidates)):
                candidates = remaining & rows[v]
                remaining ^= 1 << v
                if not need:
                    break
                if candidates.bit_count() >= need:
                    _, found, _ = self.run(
                        degree_order.rows, degree_order.relabel(candidates), need - 1, need
                    )
                    if found == need:
                        break
            clique |= 1 << v
        return clique

    def _exceeded(self) -> BudgetExceededError:
        return BudgetExceededError(f"maximum-clique search exceeded {self.node_budget} nodes")


class _DegreeOrder:
    """A graph relabelled by ascending degree, ties by label: vertex
    ``order[j]`` becomes ``j``, so the highest degree gets the highest label
    and is colored and branched on first."""

    def __init__(self, g: TermGraph):
        order = sorted(range(g.n), key=g.degrees.__getitem__)
        # ``format(mask, "0nb")`` lists labels n-1 down to 0; new label j
        # reads old label order[j], so pick those characters from the top.
        self._width = f"0{g.n}b"
        self._pick = itemgetter(*[g.n - 1 - order[j] for j in range(g.n - 1, -1, -1)])
        self.rows = tuple([self.relabel(g.rows[v]) for v in order])

    def relabel(self, mask: int) -> int:
        return int("".join(self._pick(format(mask, self._width))), 2)


class _Cover:
    """What consecutive extractions from one graph share: its degree order,
    built on first need, and the last clique size.  Each alive set lies
    inside the last one, so that size bounds the next clique."""

    def __init__(self, g: TermGraph):
        self.graph = g
        self.size = g.n

    @cached_property
    def degree_order(self) -> _DegreeOrder:
        return _DegreeOrder(self.graph)


# The cover clique_removal_cover is building, so that each of its
# max_clique_bkt calls reuses what the previous ones computed.
_cover: ContextVar[_Cover | None] = ContextVar("qwcover_removal_cover", default=None)


def max_clique_bkt(
    g: TermGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, alive: int | None = None
) -> frozenset[int]:
    """Exact maximum clique via coloring branch and bound.

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
        ValueError: no vertex is alive.
        BudgetExceededError: more than ``node_budget`` search nodes.
    """
    alive = _alive_mask(g, alive)
    if not alive:
        raise ValueError("maximum clique of an empty graph is undefined")
    cover = _cover.get()
    if cover is None or cover.graph is not g:
        cover = _Cover(g)
    search = _Search(node_budget)
    clique, size, finished = search.run(g.rows, alive, 0, cover.size, cap=alive.bit_count())
    if not finished:
        degree_order = cover.degree_order
        _, omega, _ = search.run(degree_order.rows, degree_order.relabel(alive), size, cover.size)
        if omega > size:
            clique = search.first_clique(g.rows, degree_order, alive, omega)
            size = omega
    cover.size = size
    return frozenset(iter_bits(clique))


def _ramsey_clique_mask(rows: tuple[int, ...], alive: int) -> int:
    """Recursive pivot construction, evaluated with an explicit stack.

    R(m) pivots on the lowest-index candidate v of m and returns the larger
    of {v} + R(m & N(v)) and R(m minus v and N(v)), preferring the pivot
    branch on ties.  Unrolling the second branch, R(m) is the first largest
    of the cliques {v_i} + R(m_i & N(v_i)) along the chain m_0 = m,
    m_(i+1) = m_i minus v_i and N(v_i).  Each frame walks that chain as a
    loop, holding [candidates left, best clique so far, pending pivot bit],
    so the stack grows only along pivot branches.
    """
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
        row = rows[pivot.bit_length() - 1]
        frame[0] = left & ~row & ~pivot
        frame[2] = pivot
        stack.append([left & row, 0, 0])
    return clique


def ramsey_clique(g: TermGraph, *, alive: int | None = None) -> frozenset[int]:
    """Maximal clique in polynomial time.

    Searches the subgraph induced by the ``alive`` bitmask (default: every
    vertex).  The recursive pivot construction can return a clique that is
    not maximal, so the result is greedily extended (ascending index over
    the alive vertices) until no alive vertex is adjacent to all members.
    """
    alive = _alive_mask(g, alive)
    rows = g.rows
    clique = _ramsey_clique_mask(rows, alive)
    for v in iter_bits(alive & ~clique):
        if not clique & ~rows[v]:
            clique |= 1 << v
    return frozenset(iter_bits(clique))


def clique_removal_cover(
    g: TermGraph,
    finder: Heuristic = Heuristic.BKT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CliqueCover:
    """Cover by repeated clique extraction.

    Finds a clique among the alive vertices with the selected finder,
    records it, clears its vertices from the alive mask, and repeats until
    no vertex is alive.  Groups are reported in extraction order.

    Raises:
        BudgetExceededError: propagated from the exact finder.
    """
    if finder not in (Heuristic.BKT, Heuristic.RAMSEY):
        raise ValueError(f"not a clique-removal method: {finder}")
    groups: list[frozenset[int]] = []
    alive = (1 << g.n) - 1
    token = _cover.set(_Cover(g) if finder is Heuristic.BKT else None)
    try:
        while alive:
            if finder is Heuristic.BKT:
                clique = max_clique_bkt(g, node_budget, alive=alive)
            else:
                clique = ramsey_clique(g, alive=alive)
            groups.append(clique)
            for v in clique:
                alive ^= 1 << v
    finally:
        _cover.reset(token)
    return CliqueCover(tuple(groups))

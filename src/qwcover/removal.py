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
"""

from __future__ import annotations

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


def max_clique_bkt(
    g: TermGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, alive: int | None = None
) -> frozenset[int]:
    """Exact maximum clique via pivoting branch and bound.

    Searches the subgraph induced by the ``alive`` bitmask (default: every
    vertex).  Candidates are greedily colored at every node; a vertex whose
    color bound cannot beat the incumbent prunes the whole remaining
    branch.  Fully deterministic, so ties between maximum cliques always
    resolve the same way.  The search runs on an explicit stack, so clique
    size is not limited by the interpreter's recursion limit.

    Raises:
        ValueError: no vertex is alive.
        BudgetExceededError: more than ``node_budget`` search nodes.
    """
    alive = _alive_mask(g, alive)
    if not alive:
        raise ValueError("maximum clique of an empty graph is undefined")
    rows = g.rows
    best_mask = 0
    best_size = 0
    expanded = 0

    def color_order(candidates: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set; vertices come out grouped
        # by color class, so position bounds are non-decreasing.
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

    # Frame: [run_mask, run_size, color order still to visit, remaining
    # candidates]; the order is visited from its end, largest bound first.
    stack: list[list] = []

    def push(run_mask: int, run_size: int, candidates: int) -> None:
        nonlocal expanded
        expanded += 1
        if expanded > node_budget:
            raise BudgetExceededError(
                f"maximum-clique search exceeded {node_budget} nodes"
            )
        stack.append([run_mask, run_size, color_order(candidates), candidates])

    push(0, 0, alive)
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
            push(run_mask | bit, run_size + 1, extended)
        elif run_size + 1 > best_size:
            best_mask = run_mask | bit
            best_size = run_size + 1
    return frozenset(iter_bits(best_mask))


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
    while alive:
        if finder is Heuristic.BKT:
            clique = max_clique_bkt(g, node_budget, alive=alive)
        else:
            clique = ramsey_clique(g, alive=alive)
        groups.append(clique)
        for v in clique:
            alive ^= 1 << v
    return CliqueCover(tuple(groups))

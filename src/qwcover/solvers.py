"""One front door, :func:`solve_mcc`, for all nine cover solvers.

Three grow greedy cliques of the graph itself (the classes that first-fit
coloring of the complement would give), four color the complement graph,
and two extract cliques one at a time; the exact one, ``bkt``, spends one
budget of colored vertices over its cover.
Only this module decides which solver runs: the package exports neither
the colorings of :mod:`qwcover.coloring` nor the clique finders and
removal loops of :mod:`qwcover.removal`.  No solver checks its own cover.
Callers that need that run ``validate_cover`` against the graph, or, as
``qwcover run`` does, check the partition and derive each distinct
group's basis from its words with ``basis_of_group``.
"""

from __future__ import annotations

from .coloring import (
    cosine_coloring,
    cover_from_coloring,
    db_coloring,
    dsatur_coloring,
    greedy_cliques,
    largest_first_priority,
    rlf_coloring,
    smallest_last_priority,
)
from .cover import Heuristic
from .graph import TermGraph
from .removal import DEFAULT_BKT_BUDGET, _bkt_cover, _ramsey_cover

__all__ = ["solve_mcc"]

# Each coloring heuristic as a function of the graph: GC, LF and SL grow
# greedy cliques of it, the other four color its complement.
_COLORINGS = {
    Heuristic.GC: lambda g: greedy_cliques(g.rows),
    Heuristic.LF: lambda g: greedy_cliques(g.rows, largest_first_priority(g)),
    Heuristic.SL: lambda g: greedy_cliques(g.rows, smallest_last_priority(g)),
    Heuristic.DSATUR: lambda g: dsatur_coloring(g.complement()),
    Heuristic.RLF: lambda g: rlf_coloring(g.complement()),
    Heuristic.DB: lambda g: db_coloring(g.complement()),
    Heuristic.COSINE: lambda g: cosine_coloring(g.complement()),
}


def solve_mcc(
    g: TermGraph,
    heuristic: Heuristic,
    *,
    budget: int = DEFAULT_BKT_BUDGET,
) -> tuple[int, ...]:
    """Approximate (or, for small graphs and BKT, exactly extracted)
    minimum clique cover of ``g`` with the chosen heuristic, as group
    bitmasks.

    GC, LF and SL grow cliques of ``g`` itself; the other coloring
    heuristics run on the complement graph, which ``g`` builds once and
    shares across calls.  ``budget`` only affects BKT, which spends it,
    in colored vertices, across the whole cover.

    Raises:
        TypeError: ``heuristic`` is not a :class:`Heuristic`, or it is
            BKT and ``budget`` is no integer or is a ``bool``.
        ValueError: ``heuristic`` is BKT and ``budget`` is negative.
        BudgetExceededError: ``heuristic`` is BKT and its colorings would
            color over ``budget`` vertices.
    """
    if not isinstance(heuristic, Heuristic):
        raise TypeError(f"heuristic must be a Heuristic, got {heuristic!r}")
    if heuristic is Heuristic.BKT:
        return _bkt_cover(g, budget)
    if heuristic is Heuristic.RAMSEY:
        return _ramsey_cover(g)
    return cover_from_coloring(_COLORINGS[heuristic](g))

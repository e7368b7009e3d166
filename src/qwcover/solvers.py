"""One front door, :func:`solve_mcc`, for all nine cover solvers.

Seven color the complement graph, two extract cliques one at a time.  No
solver checks its own cover; callers that need that run ``validate_cover``.
"""

from __future__ import annotations

from .coloring import (
    cosine_coloring,
    cover_from_coloring,
    db_coloring,
    dsatur_coloring,
    input_order,
    largest_first_order,
    rlf_coloring,
    sequential_coloring,
    smallest_last_order,
)
from .cover import Heuristic
from .graph import TermGraph
from .removal import DEFAULT_NODE_BUDGET, clique_removal_cover

__all__ = ["solve_mcc"]

# Each coloring heuristic as a function of the complement graph.
_COLORINGS = {
    Heuristic.GC: lambda comp: sequential_coloring(comp, input_order(comp)),
    Heuristic.LF: lambda comp: sequential_coloring(comp, largest_first_order(comp)),
    Heuristic.SL: lambda comp: sequential_coloring(comp, smallest_last_order(comp)),
    Heuristic.DSATUR: dsatur_coloring,
    Heuristic.RLF: rlf_coloring,
    Heuristic.DB: db_coloring,
    Heuristic.COSINE: cosine_coloring,
}


def solve_mcc(
    g: TermGraph,
    heuristic: Heuristic,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...]:
    """Approximate (or, for small graphs and BKT, exactly extracted)
    minimum clique cover of ``g`` with the chosen heuristic, as group
    bitmasks.

    Coloring heuristics run on the complement graph, which ``g`` builds
    once and shares across calls.  ``node_budget`` only affects BKT.
    """
    color = _COLORINGS.get(heuristic)
    if color is None:
        return clique_removal_cover(g, heuristic, node_budget)
    return cover_from_coloring(color(g.complement()))

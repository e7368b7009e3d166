"""One front door for all nine cover solvers.

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
from .cover import CliqueCover, Heuristic
from .graph import TermGraph, build_qwc_graph
from .pauli import Hamiltonian
from .removal import DEFAULT_NODE_BUDGET, clique_removal_cover

__all__ = ["HEURISTIC_ORDER", "group_hamiltonian", "solve_mcc"]

# Canonical reporting order.
HEURISTIC_ORDER: tuple[Heuristic, ...] = tuple(Heuristic)

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
) -> CliqueCover:
    """Approximate (or, for small graphs and BKT, exactly extracted)
    minimum clique cover of ``g`` with the chosen heuristic.

    Coloring heuristics run on the complement graph, which ``g`` builds
    once and shares across calls.  ``node_budget`` only affects BKT.
    """
    color = _COLORINGS.get(heuristic)
    if color is None:
        return clique_removal_cover(g, heuristic, node_budget)
    return cover_from_coloring(g, color(g.complement()), provenance=heuristic)


def group_hamiltonian(
    h: Hamiltonian,
    heuristic: Heuristic = Heuristic.LF,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CliqueCover:
    """Group a Hamiltonian's terms into shared-basis cliques."""
    return solve_mcc(build_qwc_graph(h), heuristic, node_budget=node_budget)

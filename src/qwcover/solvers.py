"""One front door for all nine cover solvers."""

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
from .cover import COLORING_HEURISTICS, CliqueCover, Heuristic
from .graph import TermGraph, build_qwc_graph
from .pauli import Hamiltonian
from .removal import DEFAULT_NODE_BUDGET, clique_removal_cover

__all__ = ["HEURISTIC_ORDER", "group_hamiltonian", "solve_mcc"]

# Canonical reporting order.
HEURISTIC_ORDER: tuple[Heuristic, ...] = tuple(Heuristic)

_ORDERING_RULES = {
    Heuristic.GC: input_order,
    Heuristic.LF: largest_first_order,
    Heuristic.SL: smallest_last_order,
}
_DIRECT_COLORINGS = {
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
    if heuristic in COLORING_HEURISTICS:
        comp = g.complement()
        if heuristic in _ORDERING_RULES:
            coloring = sequential_coloring(comp, _ORDERING_RULES[heuristic](comp))
        else:
            coloring = _DIRECT_COLORINGS[heuristic](comp)
        return cover_from_coloring(g, coloring, provenance=heuristic)
    return clique_removal_cover(g, heuristic, node_budget)


def group_hamiltonian(
    h: Hamiltonian,
    heuristic: Heuristic = Heuristic.LF,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CliqueCover:
    """Group a Hamiltonian's terms into shared-basis cliques."""
    return solve_mcc(build_qwc_graph(h), heuristic, node_budget=node_budget)

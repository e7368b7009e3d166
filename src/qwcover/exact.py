"""Exact minimum clique cover for small instances.

Intended as a test oracle: the cover size equals the chromatic number of
the complement graph: the fewest colors k for which an exhaustive
backtracking search succeeds, trying k upward from the size of a greedy
clique (no smaller k can succeed).  Colorings are lists of class
bitmasks, as in :mod:`qwcover.coloring`.  No heuristic solver runs here,
so the oracle is independent of those it judges.
"""

from __future__ import annotations

from .coloring import cover_from_coloring
from .graph import CapacityError, TermGraph, iter_bits

__all__ = ["EXACT_MCC_MAX_VERTICES", "exact_mcc", "minimum_coloring"]

# NP-hard beyond desk scale; reject instead of hanging.
EXACT_MCC_MAX_VERTICES = 16


def _check_capacity(g: TermGraph) -> None:
    if g.n > EXACT_MCC_MAX_VERTICES:
        raise CapacityError(
            f"exact solver capped at {EXACT_MCC_MAX_VERTICES} vertices, got {g.n}"
        )


def _greedy_clique_size(g: TermGraph) -> int:
    """Any clique bounds the chromatic number from below; take a greedy one
    grown by degree (ties by index)."""
    if g.n == 0:
        return 0
    best = 0
    for seed in range(g.n):
        clique = 1 << seed
        candidates = g.rows[seed]
        while candidates:
            v = max(
                iter_bits(candidates),
                key=lambda u: ((g.rows[u] & candidates).bit_count(), -u),
            )
            clique |= 1 << v
            candidates &= g.rows[v]
        best = max(best, clique.bit_count())
    return best


def _color_with(g: TermGraph, k: int, order: tuple[int, ...]) -> list[int] | None:
    """Complete backtracking search for a proper coloring with at most k
    colors; new colors are opened in index order (symmetry breaking)."""
    n = g.n
    rows = g.rows
    class_masks = [0] * k

    def assign(position: int, n_used: int) -> bool:
        if position == n:
            return True
        v = order[position]
        row = rows[v]
        for c in range(min(k, n_used + 1)):
            if class_masks[c] & row:
                continue
            class_masks[c] |= 1 << v
            if assign(position + 1, max(n_used, c + 1)):
                return True
            class_masks[c] ^= 1 << v
        return False

    if not assign(0, 0):
        return None
    return [mask for mask in class_masks if mask]


def minimum_coloring(g: TermGraph) -> list[int]:
    """A provably optimal proper coloring, as class bitmasks in color order.

    Raises:
        CapacityError: more than :data:`EXACT_MCC_MAX_VERTICES` vertices.
    """
    _check_capacity(g)
    order = tuple(sorted(range(g.n), key=lambda v: (-g.degrees[v], v)))
    k = _greedy_clique_size(g)
    while (found := _color_with(g, k, order)) is None:
        k += 1
    return found


def exact_mcc(g: TermGraph) -> tuple[int, ...]:
    """A provably minimum clique cover, as group bitmasks, via exact
    coloring of the complement graph.

    Raises:
        CapacityError: more than :data:`EXACT_MCC_MAX_VERTICES` vertices.
    """
    _check_capacity(g)
    return cover_from_coloring(minimum_coloring(g.complement()))

"""Exact minimum clique cover for small instances.

Intended as a test oracle: the cover size equals the chromatic number of
the complement graph, which is computed by exhaustive branch-and-bound
coloring.  Correctness rests only on the completeness of that search; the
greedy bounds used to narrow the color range merely speed it up.
"""

from __future__ import annotations

from .coloring import Coloring, cover_from_coloring, dsatur_coloring
from .cover import CliqueCover
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


def _color_with(g: TermGraph, k: int, order: tuple[int, ...]) -> Coloring | None:
    """Complete backtracking search for a proper coloring with at most k
    colors; new colors are opened in index order (symmetry breaking)."""
    n = g.n
    rows = g.rows
    color_of = [0] * n
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
            color_of[v] = c
            if assign(position + 1, max(n_used, c + 1)):
                return True
            class_masks[c] ^= 1 << v
        return False

    if not assign(0, 0):
        return None
    return Coloring(tuple(color_of), max(color_of) + 1)


def minimum_coloring(g: TermGraph) -> Coloring:
    """A provably optimal proper coloring.

    Raises:
        CapacityError: more than :data:`EXACT_MCC_MAX_VERTICES` vertices.
    """
    _check_capacity(g)
    if g.n == 0:
        return Coloring((), 0)
    upper = dsatur_coloring(g)
    if not upper.is_proper(g):
        raise AssertionError("upper-bound coloring is not proper")
    lower = _greedy_clique_size(g)
    order = tuple(sorted(range(g.n), key=lambda v: (-g.degrees[v], v)))
    for k in range(lower, upper.n_colors):
        found = _color_with(g, k, order)
        if found is not None:
            return found
    return upper


def exact_mcc(g: TermGraph) -> CliqueCover:
    """A provably minimum clique cover, via exact coloring of the
    complement graph.

    Raises:
        CapacityError: more than :data:`EXACT_MCC_MAX_VERTICES` vertices.
    """
    _check_capacity(g)
    return cover_from_coloring(g, minimum_coloring(g.complement()), provenance=None)

"""Clique covers, per-group measurement bases, and cover statistics.

A cover is a tuple of group bitmasks, term ``i`` as bit ``i``, as a
coloring is a list of class bitmasks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .graph import TermGraph, iter_bits
from .pauli import Hamiltonian, PauliAxis

__all__ = [
    "BasisConflictError",
    "CoverStats",
    "Heuristic",
    "InvalidCoverError",
    "basis_of_group",
    "compute_stats",
    "validate_cover",
]


class Heuristic(enum.Enum):
    """The nine supported minimum-clique-cover solvers.

    The first seven color the complement graph (GC/LF/SL are vertex
    orderings fed to sequential coloring; DSATUR, RLF, DB and COSINE have
    their own selection rules); RAMSEY and BKT repeatedly extract a clique
    and remove it.  Enum definition order is the canonical reporting order.
    """

    GC = "gc"
    LF = "lf"
    SL = "sl"
    DSATUR = "dsatur"
    RLF = "rlf"
    DB = "db"
    COSINE = "cosine"
    RAMSEY = "ramsey"
    BKT = "bkt"


class InvalidCoverError(ValueError):
    """A purported cover is not a partition into cliques."""


class BasisConflictError(ValueError):
    """A group needs two different axes on one qubit, so it is not QWC."""


def validate_cover(g: TermGraph, cover: tuple[int, ...]) -> None:
    """Check that the group bitmasks partition the graph's vertices into
    cliques.

    Raises:
        InvalidCoverError: a group is not an int, is empty, references a
            vertex outside the graph (or is negative), overlaps an earlier
            group, or holds a non-adjacent pair; or a vertex is uncovered.
    """
    covered = 0
    for index, group in enumerate(cover):
        if not isinstance(group, int):
            raise InvalidCoverError(f"group {index} is not a vertex bitmask: {group!r}")
        if not group:
            raise InvalidCoverError(f"group {index} is empty")
        # A negative mask holds every vertex from some point up.
        unknown = group >> g.n << g.n
        if unknown:
            v = (unknown & -unknown).bit_length() - 1
            raise InvalidCoverError(f"group {index} references unknown vertex {v}")
        overlap = covered & group
        if overlap:
            raise InvalidCoverError(
                f"vertex {next(iter_bits(overlap))} appears in more than one group"
            )
        covered |= group
        for v in iter_bits(group):
            missing = group & ~g.rows[v] & ~(1 << v)
            if missing:
                other = missing.bit_length() - 1
                raise InvalidCoverError(
                    f"group {index} is not a clique: ({v}, {other}) is not an edge"
                )
    uncovered = ~covered & ((1 << g.n) - 1)
    if uncovered:
        raise InvalidCoverError(f"vertex {next(iter_bits(uncovered))} is not covered")


def basis_of_group(h: Hamiltonian, group: int) -> dict[int, PauliAxis]:
    """The shared tensor-product basis of a QWC group (a bitmask of term
    indices), as ``{qubit: axis}`` ordered by qubit; qubits no word in the
    group touches are absent.

    Every qubit touched by any word in the group is read along that word's
    axis; qubit-wise commutation guarantees the axis is unique per qubit.

    Raises:
        BasisConflictError: two group members disagree on a qubit's axis,
            i.e. the group was not actually a clique of the QWC graph.
    """
    assignment: dict[int, PauliAxis] = {}
    for index in iter_bits(group):
        for qubit, axis in h.terms[index].word:
            current = assignment.get(qubit)
            if current is None:
                assignment[qubit] = axis
            elif current is not axis:
                raise BasisConflictError(
                    f"qubit {qubit} would need both {current} and {axis}"
                )
    return dict(sorted(assignment.items()))


@dataclass(frozen=True, slots=True)
class CoverStats:
    """Summary of a cover: group count, largest group, population standard
    deviation of the group sizes (correctly rounded), and total term count."""

    n_groups: int
    max_size: int
    size_std: float
    total_terms: int


def _population_std(sizes: list[int]) -> float:
    """sqrt((n·Σs² − (Σs)²) / n²), correctly rounded on every Python: the
    exact variance, scaled by a power of four, keeps 109 bits in its integer
    square root, which is rounded to odd so the float conversion rounds once."""
    n = len(sizes)
    num = n * sum(s * s for s in sizes) - sum(sizes) ** 2
    den = n * n
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    return math.ldexp(root | (root * root * den != num), shift)


def compute_stats(cover: tuple[int, ...]) -> CoverStats:
    sizes = [group.bit_count() for group in cover]
    if not sizes:
        return CoverStats(0, 0, 0.0, 0)
    return CoverStats(
        n_groups=len(sizes),
        max_size=max(sizes),
        size_std=_population_std(sizes),
        total_terms=sum(sizes),
    )

"""Clique covers, per-group measurement bases, and cover statistics."""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import TermGraph
from .pauli import Hamiltonian, PauliAxis

__all__ = [
    "BasisConflictError",
    "CliqueCover",
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


@dataclass(frozen=True, slots=True)
class CliqueCover:
    """Disjoint partition of term indices into cliques of the QWC graph;
    :func:`validate_cover` checks that it is one."""

    groups: tuple[frozenset[int], ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        # From a list: tuple() resizes a generator's result, and resized
        # tuples collect in the tuple free lists until a full collection.
        return tuple([len(group) for group in self.groups])


def validate_cover(g: TermGraph, cover: CliqueCover) -> None:
    """Check the partition and clique properties against the graph.

    Raises:
        InvalidCoverError: groups overlap, miss a vertex, reference an
            unknown vertex, or contain a non-adjacent pair.
    """
    seen: set[int] = set()
    for index, group in enumerate(cover.groups):
        if not group:
            raise InvalidCoverError(f"group {index} is empty")
        mask = 0
        for v in group:
            if not 0 <= v < g.n:
                raise InvalidCoverError(f"group {index} references unknown vertex {v}")
            if v in seen:
                raise InvalidCoverError(f"vertex {v} appears in more than one group")
            seen.add(v)
            mask |= 1 << v
        for v in group:
            missing = mask & ~g.rows[v] & ~(1 << v)
            if missing:
                other = missing.bit_length() - 1
                raise InvalidCoverError(
                    f"group {index} is not a clique: ({v}, {other}) is not an edge"
                )
    if len(seen) != g.n:
        missing_vertex = next(v for v in range(g.n) if v not in seen)
        raise InvalidCoverError(f"vertex {missing_vertex} is not covered")


def basis_of_group(h: Hamiltonian, group: Iterable[int]) -> dict[int, PauliAxis]:
    """The shared tensor-product basis of a QWC group, as ``{qubit: axis}``
    ordered by qubit; qubits no word in the group touches are absent.

    Every qubit touched by any word in the group is read along that word's
    axis; qubit-wise commutation guarantees the axis is unique per qubit.

    Raises:
        BasisConflictError: two group members disagree on a qubit's axis,
            i.e. the group was not actually a clique of the QWC graph.
    """
    assignment: dict[int, PauliAxis] = {}
    for index in group:
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


def _population_std(sizes: tuple[int, ...]) -> float:
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


def compute_stats(cover: CliqueCover) -> CoverStats:
    sizes = cover.sizes
    if not sizes:
        return CoverStats(0, 0, 0.0, 0)
    return CoverStats(
        n_groups=len(sizes),
        max_size=max(sizes),
        size_std=_population_std(sizes),
        total_terms=sum(sizes),
    )

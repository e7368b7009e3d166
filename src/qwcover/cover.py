"""Clique covers, per-group measurement bases, and cover statistics."""

from __future__ import annotations

import enum
import statistics
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .graph import TermGraph
from .pauli import Hamiltonian, PauliAxis, qubit_wise_commute

__all__ = [
    "BasisConflictError",
    "CliqueCover",
    "CoverStats",
    "Heuristic",
    "InvalidCoverError",
    "MeasurementBasis",
    "basis_of_group",
    "compute_stats",
    "validate_cover",
    "validate_cover_words",
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
    """Disjoint partition of term indices into cliques of the QWC graph.

    ``provenance`` names the heuristic that produced the cover, or is
    ``None`` for covers from the exact solver or built by hand.
    """

    groups: tuple[frozenset[int], ...]
    provenance: Heuristic | None = None

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.groups)

    def vertex_set(self) -> frozenset[int]:
        return frozenset().union(*self.groups)


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


def validate_cover_words(h: Hamiltonian, cover: CliqueCover) -> None:
    """Re-check every group pairwise from the words themselves.

    Independent of any graph object: recomputes qubit-wise commutation for
    each in-group pair directly.
    """
    words = h.words()
    if cover.vertex_set() != frozenset(range(len(words))):
        raise InvalidCoverError("cover does not partition the Hamiltonian's term indices")
    for index, group in enumerate(cover.groups):
        members = sorted(group)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not qubit_wise_commute(words[a], words[b]):
                    raise InvalidCoverError(
                        f"group {index}: terms {a} and {b} do not qubit-wise commute"
                    )


@dataclass(frozen=True, slots=True)
class MeasurementBasis:
    """Per-qubit measurement axes for one group of simultaneously
    measurable terms; qubits untouched by the group are unassigned."""

    assignment: Mapping[int, PauliAxis] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = dict(sorted(self.assignment.items()))
        for qubit, axis in frozen.items():
            if axis is PauliAxis.I:
                raise ValueError(f"identity assigned on qubit {qubit}")
        object.__setattr__(self, "assignment", frozen)

    def axis_on(self, qubit: int) -> PauliAxis | None:
        return self.assignment.get(qubit)

    def __str__(self) -> str:
        return " ".join(f"{q}:{axis}" for q, axis in self.assignment.items())


def basis_of_group(h: Hamiltonian, group: Iterable[int]) -> MeasurementBasis:
    """The shared tensor-product basis of a QWC group.

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
    return MeasurementBasis(assignment)


@dataclass(frozen=True, slots=True)
class CoverStats:
    """Summary of a cover: group count, largest group, population standard
    deviation of the group sizes, and total term count."""

    n_groups: int
    max_size: int
    size_std: float
    total_terms: int


def compute_stats(cover: CliqueCover) -> CoverStats:
    sizes = cover.sizes
    if not sizes:
        return CoverStats(0, 0, 0.0, 0)
    return CoverStats(
        n_groups=len(sizes),
        max_size=max(sizes),
        size_std=statistics.pstdev(sizes),
        total_terms=sum(sizes),
    )

"""Clique covers, per-group measurement bases, and cover statistics.

A cover is a tuple of group bitmasks, term ``i`` as bit ``i``, as a
coloring is a list of class bitmasks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .graph import TermGraph
from .pauli import Hamiltonian, PauliAxis, _axis_at

__all__ = [
    "BasisConflictError",
    "CoverStats",
    "Heuristic",
    "InvalidCoverError",
    "basis_of_group",
    "compute_stats",
    "validate_cover",
]

_X, _Y, _Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z


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


class BasisConflictError(InvalidCoverError):
    """A group needs two different axes on one qubit, so it is not QWC."""


def _check_partition(n: int, cover: tuple[int, ...]) -> None:
    """Check that the group bitmasks partition vertices ``0..n-1``: the
    checks of :func:`validate_cover` that need no edges.

    Raises:
        InvalidCoverError: a group is not an int (or is a bool), is empty,
            references a vertex ``n`` or above (or is negative), or overlaps
            an earlier group; or a vertex is uncovered.
    """
    covered = 0
    for index, group in enumerate(cover):
        if not isinstance(group, int) or isinstance(group, bool):
            raise InvalidCoverError(f"group {index} is not a vertex bitmask: {group!r}")
        if not group:
            raise InvalidCoverError(f"group {index} is empty")
        # A negative mask holds every vertex from some point up.
        unknown = group >> n << n
        if unknown:
            v = (unknown & -unknown).bit_length() - 1
            raise InvalidCoverError(f"group {index} references unknown vertex {v}")
        overlap = covered & group
        if overlap:
            v = (overlap & -overlap).bit_length() - 1
            raise InvalidCoverError(f"vertex {v} appears in more than one group")
        covered |= group
    uncovered = ~covered & ((1 << n) - 1)
    if uncovered:
        v = (uncovered & -uncovered).bit_length() - 1
        raise InvalidCoverError(f"vertex {v} is not covered")


def validate_cover(g: TermGraph, cover: tuple[int, ...]) -> None:
    """Check that the group bitmasks partition the graph's vertices into
    cliques: first the partition, then each group against the graph's rows.

    ``qwcover run`` checks only the partition here and proves each distinct
    group a clique from its Pauli words, with :func:`basis_of_group`; on a
    QWC graph the two checks accept the same covers.

    Raises:
        InvalidCoverError: a group is not an int (or is a bool), is empty,
            references a vertex outside the graph (or is negative), or
            overlaps an earlier group; a vertex is uncovered; or a group
            holds a non-adjacent pair.
    """
    _check_partition(g.n, cover)
    for index, group in enumerate(cover):
        rest = group
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            missing = group & ~(g.rows[v] | low)
            if missing:
                other = missing.bit_length() - 1
                raise InvalidCoverError(
                    f"group {index} is not a clique: ({v}, {other}) is not an edge"
                )
            rest ^= low


def basis_of_group(h: Hamiltonian, group: int) -> dict[int, PauliAxis]:
    """The shared tensor-product basis of a QWC group (a bitmask of term
    indices), as ``{qubit: axis}`` ordered by qubit, from its words' x and z
    masks ORed in term order; qubits no word in the group touches are absent.

    This is the word-level clique check: ``qwcover run`` calls it once per
    distinct group of a file, and it walks the group's bits and the words'
    masks inline.

    Raises:
        TypeError: the group is a ``bool``, not a term bitmask.
        ValueError: the group is negative, or references a term ``h``
            does not have; the message names the lowest such term.
        BasisConflictError: two group members disagree on a qubit's axis,
            i.e. the group was not actually a clique of the QWC graph; the
            message names the first clashing term's lowest such qubit.
            It is an :class:`InvalidCoverError`.
    """
    terms = h.terms
    n = len(terms)
    if isinstance(group, bool):
        raise TypeError(f"group must be a term bitmask, not {group!r}")
    if group < 0:
        raise ValueError(f"negative mask {group} has no finite set of bits")
    unknown = group >> n << n
    if unknown:
        raise ValueError(f"group references unknown term {(unknown & -unknown).bit_length() - 1}")
    x = z = 0
    rest = group
    while rest:
        low = rest & -rest
        word = terms[low.bit_length() - 1].word
        wx = word._x_mask
        wz = word._z_mask
        clash = (wx | wz) & (x | z) & ((wx ^ x) | (wz ^ z))
        if clash:
            q = (clash & -clash).bit_length() - 1
            raise BasisConflictError(
                f"qubit {q} would need both {_axis_at(x, z, q)} and {_axis_at(wx, wz, q)}"
            )
        x |= wx
        z |= wz
        rest ^= low
    basis = {}
    rest = x | z
    while rest:
        low = rest & -rest
        basis[low.bit_length() - 1] = (_Y if z & low else _X) if x & low else _Z
        rest ^= low
    return basis


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

"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written from first principles (dense
matrices, subset enumeration, subset dynamic programming) and shares no
algorithmic machinery with the package under test.  The exceptions:
:func:`relabelling_clique_removal` runs the package's own ``ramsey`` finder
and :func:`full_search_max_clique_bkt` on rebuilt subgraphs, so that it
checks only the removal loop around them;
:func:`full_search_max_clique_bkt` is the package's earlier exact search,
run to the end, the reference for the bounded search that ``bkt`` runs on
the degree-ordered graph (:func:`degree_order`), whose rows the package
relabels with a bit-matrix transpose, checked against the per-bit
definition (:func:`per_bit_planes`) and the package's earlier string
gather (:func:`string_gather_degree_order`);
:func:`counted_max_clique_bkt` is that bounded search coloring into
``(vertex, color)`` pairs, as the earlier search did, with its node count:
the reference for the class-mask search's nodes; and
:func:`scan_smallest_last_order` / :func:`scan_dsatur_coloring` are the
package's earlier full-scan orderings, the reference for its bit-sliced
counters, :func:`scan_db_coloring` is its earlier full-scan pair choice,
the reference for its lazy row bounds, and :func:`scan_rlf_coloring` /
:func:`merge_cosine_coloring` are its earlier RLF scan and merged-graph
COSINE, the reference for its one candidate scan and class-by-class COSINE.
:class:`_MergeState`, the merged graph behind the last two merge schemes,
is the package's earlier copy, so no reference shares a solver's internals.
:func:`reference_parse_hamiltonian` is the package's earlier parser, which
checked each factor as it read it and again in the earlier
:class:`ReferencePauliWord` constructor: the reference for the one-pass
parser, with its earlier index bound.  It shares the parser's unchanged
helpers (coefficients, line and header patterns).  Its words keep their
factors as sorted ``(qubit, axis)`` items and read them back from those:
the reference for the mask decode of :class:`PauliWord`.
:func:`scan_basis_of_group` is the package's earlier per-factor basis
derivation, the reference for the one built from the words' masks.
:func:`exact_mcc` and :func:`minimum_coloring`, the exact optimum that
every heuristic's cover is measured against, color by exhaustive
backtracking and run no heuristic; they share only the package's
``cover_from_coloring``, and :func:`chromatic_number_dp` cross-checks
them.  :func:`axis_on` decodes a word's masks with its own table.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import re
from collections.abc import Iterable, Mapping
from functools import lru_cache, reduce
from operator import itemgetter

import numpy as np

from qwcover import (
    COEFFICIENT_PRUNE_THRESHOLD,
    DEFAULT_NODE_BUDGET,
    MAX_QUBIT_INDEX,
    BasisConflictError,
    BudgetExceededError,
    CapacityError,
    Hamiltonian,
    HamiltonianTerm,
    Heuristic,
    ParseError,
    PauliAxis,
    PauliWord,
    TermGraph,
    cover_from_coloring,
    iter_bits,
    qubit_wise_commute,
    ramsey_clique,
)
from qwcover.pauli import (
    _HEADER_RE,
    _NEGATIVE_FACTOR_RE,
    _TERM_RE,
    _as_axis,
    _parse_coefficient,
)
from qwcover.removal import _alive_mask

PAULI_MATRICES = {
    PauliAxis.I: np.eye(2, dtype=complex),
    PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


# A qubit's axis by its (x bit, z bit): X sets x, Z sets z, Y sets both.
_AXIS_OF_BITS = {
    (0, 0): PauliAxis.I, (1, 0): PauliAxis.X, (0, 1): PauliAxis.Z, (1, 1): PauliAxis.Y,
}


def axis_on(word: PauliWord, qubit: int) -> PauliAxis:
    """The axis of ``word`` on ``qubit``, read off its two mask bits."""
    return _AXIS_OF_BITS[word.x_mask >> qubit & 1, word.z_mask >> qubit & 1]


def word_matrix(word: PauliWord, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli word (qubit 0 is the first factor)."""
    factors = [PAULI_MATRICES[axis_on(word, q)] for q in range(n_qubits)]
    if not factors:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, factors)


def matrices_commute(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a @ b, b @ a))


def dense_fully_commute(a: PauliWord, b: PauliWord, n_qubits: int) -> bool:
    """Commutator test on explicit matrices."""
    ma = word_matrix(a, n_qubits)
    mb = word_matrix(b, n_qubits)
    return matrices_commute(ma, mb)


def dense_qubit_wise_commute(a: PauliWord, b: PauliWord, n_qubits: int) -> bool:
    """Per-qubit 2x2 commutator test on explicit matrices."""
    for q in range(n_qubits):
        ma = PAULI_MATRICES[axis_on(a, q)]
        mb = PAULI_MATRICES[axis_on(b, q)]
        if not matrices_commute(ma, mb):
            return False
    return True


def fully_commute(a: PauliWord, b: PauliWord) -> bool:
    """Whether the two words commute as operators, from the symplectic form:
    they anticommute exactly when ``x(a)·z(b) + z(a)·x(b)`` is odd."""
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


def members(mask: int) -> list[int]:
    """The vertices of a non-negative bitmask, ascending, read off its
    binary digits."""
    assert mask >= 0, f"negative mask {mask}"
    return [v for v, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex collection."""
    return sum(1 << v for v in set(vertices))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> TermGraph:
    """The graph on ``n`` vertices with exactly the given edges, either
    orientation.

    Raises:
        ValueError: an endpoint outside ``0..n-1``, or a self-loop.
    """
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"self-loop on vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return TermGraph(rows)


def edge_set(g: TermGraph) -> set[tuple[int, int]]:
    """Every edge ``(i, j)`` of ``g`` with ``i < j``, read off its rows."""
    return {(i, j) for i in range(g.n) for j in members(g.rows[i]) if i < j}


def assert_qwc_partition(h: Hamiltonian, cover: tuple[int, ...]) -> None:
    """The group bitmasks are non-empty, every term index is in exactly one
    of them, and every in-group pair of words qubit-wise commutes by the
    2x2-matrix commutator test."""
    groups = [members(group) for group in cover]
    assert all(groups), "cover has an empty group"
    assert sorted(v for group in groups for v in group) == list(range(h.n_terms)), (
        "cover does not partition the terms"
    )
    words = h.words()
    for index, group in enumerate(groups):
        for a, b in itertools.combinations(group, 2):
            assert dense_qubit_wise_commute(words[a], words[b], h.n_qubits), (
                f"group {index}: terms {a} and {b} do not qubit-wise commute"
            )


def scan_basis_of_group(h: Hamiltonian, group: int) -> dict[int, PauliAxis]:
    """The package's earlier ``basis_of_group``: each member's factors in
    term order, each qubit's first axis kept, then sorted by qubit."""
    n = len(h.terms)
    unknown = group >> n << n
    if unknown > 0:
        raise ValueError(f"group references unknown term {(unknown & -unknown).bit_length() - 1}")
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


def is_symmetric(g: TermGraph) -> bool:
    """Whether every edge ``(i, j)`` also appears as ``(j, i)``, with no
    self-loops."""
    return all(
        g.rows[j] >> i & 1 == g.rows[i] >> j & 1 and not g.rows[i] >> i & 1
        for i in range(g.n)
        for j in range(g.n)
    )


def qwc_implies_commute(a: PauliWord, b: PauliWord) -> bool:
    """QWC pairs must also commute ordinarily: ``(not qubit_wise_commute(a,
    b)) or fully_commute(a, b)``, which holds for all word pairs."""
    return (not qubit_wise_commute(a, b)) or fully_commute(a, b)


def induced_subgraph(g: TermGraph, kept: list[int]) -> TermGraph:
    """Subgraph on ``kept``, relabelled ``0..len(kept)-1`` in that order."""
    return graph_from_edges(
        len(kept),
        [
            (a, b)
            for a, b in itertools.combinations(range(len(kept)), 2)
            if g.rows[kept[a]] >> kept[b] & 1
        ],
    )


def relabelling_clique_removal(g: TermGraph, finder: Heuristic) -> tuple[frozenset[int], ...]:
    """Groups of clique-removal cover computed on rebuilt graphs.

    After every extraction the induced subgraph of the remaining vertices
    is rebuilt and relabelled in ascending order, the finder runs on it
    with no mask, and its labels are mapped back.  This is the reference
    for the library's alive-mask removal, which must give the same groups.
    """
    if finder is Heuristic.BKT:
        find = full_search_max_clique_bkt
    else:
        def find(sub: TermGraph) -> frozenset[int]:
            return frozenset(members(ramsey_clique(sub)))
    kept = list(range(g.n))
    groups = []
    while kept:
        local = find(induced_subgraph(g, kept))
        group = frozenset(kept[v] for v in local)
        groups.append(group)
        kept = [v for v in kept if v not in group]
    return tuple(groups)


def full_search_max_clique_bkt(
    g: TermGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, alive: int | None = None
) -> frozenset[int]:
    """Exact maximum clique via pivoting branch and bound.

    Searches the subgraph induced by the ``alive`` bitmask (default: every
    vertex).  Candidates are greedily colored at every node; a vertex whose
    color bound cannot beat the incumbent prunes the whole remaining
    branch.  Fully deterministic, so ties between maximum cliques always
    resolve the same way.  The search runs on an explicit stack, so clique
    size is not limited by the interpreter's recursion limit.

    Raises:
        ValueError: no vertex is alive.
        BudgetExceededError: more than ``node_budget`` search nodes.
    """
    alive = _alive_mask(g, alive)
    if not alive:
        raise ValueError("maximum clique of an empty graph is undefined")
    rows = g.rows
    best_mask = 0
    best_size = 0
    expanded = 0

    def color_order(candidates: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set; vertices come out grouped
        # by color class, so position bounds are non-decreasing.
        order: list[tuple[int, int]] = []
        uncolored = candidates
        color = 0
        while uncolored:
            color += 1
            available = uncolored
            while available:
                v = available.bit_length() - 1
                bit = 1 << v
                order.append((v, color))
                uncolored ^= bit
                available &= ~(bit | rows[v])
        return order

    # Frame: [run_mask, run_size, color order still to visit, remaining
    # candidates]; the order is visited from its end, largest bound first.
    stack: list[list] = []

    def push(run_mask: int, run_size: int, candidates: int) -> None:
        nonlocal expanded
        expanded += 1
        if expanded > node_budget:
            raise BudgetExceededError(
                f"maximum-clique search exceeded {node_budget} nodes"
            )
        stack.append([run_mask, run_size, color_order(candidates), candidates])

    push(0, 0, alive)
    while stack:
        frame = stack[-1]
        run_mask, run_size, order, remaining = frame
        if not order or run_size + order[-1][1] <= best_size:
            stack.pop()
            continue
        v, _ = order.pop()
        bit = 1 << v
        frame[3] = remaining ^ bit
        extended = remaining & rows[v]
        if extended:
            push(run_mask | bit, run_size + 1, extended)
        elif run_size + 1 > best_size:
            best_mask = run_mask | bit
            best_size = run_size + 1
    return frozenset(iter_bits(best_mask))


def _color_order(rows: tuple[int, ...], candidates: int) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set, each class built from the
    highest label down; vertices come out grouped by color class, so
    position bounds are non-decreasing."""
    order: list[tuple[int, int]] = []
    uncolored = candidates
    color = 0
    while uncolored:
        color += 1
        available = uncolored
        while available:
            v = available.bit_length() - 1
            bit = 1 << v
            order.append((v, color))
            uncolored ^= bit
            available &= ~(bit | rows[v])
    return order


def per_bit_planes(values: list[int], width: int) -> list[int]:
    """Bit ``u`` of plane ``j`` is bit ``j`` of ``values[u]``, one bit at a
    time: the definition the package's bit-matrix transpose must meet."""
    planes = [0] * width
    for u, value in enumerate(values):
        for j, bit in enumerate(reversed(format(value, "b"))):
            if bit == "1":
                planes[j] |= 1 << u
    return planes


def string_gather_degree_order(g: TermGraph) -> tuple[int, ...]:
    """The rows of ``g`` relabelled by :func:`degree_order`, gathered as
    the package did before its transpose: each row is formatted as a
    binary string, its characters are picked in the new order and the
    string is parsed back."""
    order = degree_order(g)
    width = f"0{g.n}b"
    # ``format(mask, "0nb")`` lists labels n-1 down to 0; new label j
    # reads old label order[j], so pick those characters from the top.
    pick = itemgetter(*[g.n - 1 - order[j] for j in range(g.n - 1, -1, -1)])
    return tuple(int("".join(pick(format(g.rows[v], width))), 2) for v in order)


def degree_order(g: TermGraph) -> list[int]:
    """Vertices by ascending degree, ties by label.  The package's ``bkt``
    searches ``induced_subgraph(g, order)`` for this ``order``, in which
    vertex ``order[j]`` is ``j``."""
    return sorted(range(g.n), key=lambda v: (len(members(g.rows[v])), v))


@lru_cache(maxsize=4)
def _degree_ordered(g: TermGraph) -> tuple[tuple[int, ...], TermGraph]:
    """:func:`degree_order` and the graph it relabels, built once per graph
    for the extractions of a cover."""
    order = degree_order(g)
    return tuple(order), induced_subgraph(g, order)


def _to_degree_order(order: tuple[int, ...], alive: int) -> int:
    return mask_of(j for j, v in enumerate(order) if alive >> v & 1)


def degree_order_max_clique_bkt(g: TermGraph, *, alive: int | None = None) -> frozenset[int]:
    """:func:`full_search_max_clique_bkt` on the degree-ordered graph, in
    ``g``'s labels: the reference for the clique ``max_clique_bkt``
    returns."""
    alive = _alive_mask(g, alive)
    order, ordered = _degree_ordered(g)
    found = full_search_max_clique_bkt(ordered, alive=_to_degree_order(order, alive))
    return frozenset(order[j] for j in found)


def degree_order_clique_removal(g: TermGraph) -> tuple[frozenset[int], ...]:
    """:func:`relabelling_clique_removal` with ``BKT`` on the degree-ordered
    graph, in ``g``'s labels: the reference for the ``bkt`` cover."""
    order, ordered = _degree_ordered(g)
    groups = relabelling_clique_removal(ordered, Heuristic.BKT)
    return tuple(frozenset(order[j] for j in group) for group in groups)


def counted_max_clique_bkt(
    g: TermGraph, *, alive: int | None = None, bound: int | None = None
) -> tuple[int, int]:
    """The search of ``max_clique_bkt``, coloring into a list of
    ``(vertex, color)`` pairs as the package's earlier search did, as
    ``(clique mask, nodes)``.

    One search on the degree-ordered graph, stopped at the first clique
    that reaches ``bound`` (the previous extraction's clique size inside a
    cover; default: the vertex count, as in a standalone call) or the root
    coloring's color count.  The reference for the class-mask search,
    which must return the same clique after the same number of nodes.
    """
    alive = _alive_mask(g, alive)
    if not alive:
        raise ValueError("maximum clique of an empty graph is undefined")
    order, ordered = _degree_ordered(g)
    rows = ordered.rows
    candidates = _to_degree_order(order, alive)
    order_of_root = _color_order(rows, candidates)
    bound = min(g.n if bound is None else bound, order_of_root[-1][1])
    # Frame: [run_mask, run_size, color order still to visit, remaining
    # candidates].
    stack: list[list] = [[0, 0, order_of_root, candidates]]
    nodes = 1
    best_mask = 0
    best_size = 0
    while stack:
        frame = stack[-1]
        run_mask, run_size, colors, remaining = frame
        if not colors or run_size + colors[-1][1] <= best_size:
            stack.pop()
            continue
        v, _ = colors.pop()
        bit = 1 << v
        frame[3] = remaining ^ bit
        extended = remaining & rows[v]
        if extended:
            nodes += 1
            stack.append([run_mask | bit, run_size + 1, _color_order(rows, extended), extended])
        elif run_size + 1 > best_size:
            best_mask = run_mask | bit
            best_size = run_size + 1
            if best_size >= bound:
                break
    return mask_of(order[j] for j in iter_bits(best_mask)), nodes


def counted_bkt_cover(g: TermGraph) -> list[tuple[int, int]]:
    """``(clique, nodes)`` of every extraction of the ``bkt`` cover, each
    search bounded by the previous clique's size."""
    extractions = []
    alive = (1 << g.n) - 1
    bound = g.n
    while alive:
        clique, nodes = counted_max_clique_bkt(g, alive=alive, bound=bound)
        extractions.append((clique, nodes))
        alive ^= clique
        bound = clique.bit_count()
    return extractions


def recursive_ramsey_pivot_clique(g: TermGraph, alive: int) -> frozenset[int]:
    """The recursive pivot construction alone, restricted to ``alive``.

    R(S) pivots on the lowest vertex v of S and returns the larger of
    {v} + R(S & N(v)) and R(S - N(v) - {v}), the pivot branch on ties.
    """

    def ramsey(candidates: frozenset[int]) -> frozenset[int]:
        if not candidates:
            return frozenset()
        v = min(candidates)
        neighbors = frozenset(members(g.rows[v]))
        with_pivot = {v} | ramsey(candidates & neighbors)
        without_pivot = ramsey(candidates - neighbors - {v})
        return with_pivot if len(with_pivot) >= len(without_pivot) else without_pivot

    return ramsey(frozenset(v for v in range(g.n) if alive >> v & 1))


def recursive_ramsey_clique(g: TermGraph, alive: int) -> frozenset[int]:
    """``ramsey_clique`` restricted to ``alive``, as plain recursion: the
    pivot construction's clique, extended greedily in ascending index
    order."""
    clique = set(recursive_ramsey_pivot_clique(g, alive))
    for v in range(g.n):
        if alive >> v & 1 and v not in clique and all(g.rows[v] >> u & 1 for u in clique):
            clique.add(v)
    return frozenset(clique)


def scan_smallest_last_order(g: TermGraph) -> tuple[int, ...]:
    """Degeneracy ordering: repeatedly move the vertex of smallest degree
    in the shrinking graph to the back (ties by ascending index); what
    remains at the front is processed first."""
    rows = g.rows
    remaining = (1 << g.n) - 1
    order = [0] * g.n
    for position in range(g.n - 1, -1, -1):
        v = min(
            iter_bits(remaining),
            key=lambda u: ((rows[u] & remaining).bit_count(), u),
        )
        order[position] = v
        remaining ^= 1 << v
    return tuple(order)


def scan_dsatur_coloring(g: TermGraph) -> list[int]:
    """Saturation-driven coloring.

    Colors the largest-degree vertex first, then repeatedly the uncolored
    vertex adjacent to the most distinct colors (its saturation), breaking
    ties by larger degree within the uncolored subgraph, then by index.
    """
    n = g.n
    if n == 0:
        return []
    rows = g.rows
    seen_colors = [0] * n  # per-vertex bitmask of colors on colored neighbors
    class_masks: list[int] = []
    uncolored = (1 << n) - 1
    current = max(range(n), key=lambda v: (g.degrees[v], -v))
    while True:
        taken = seen_colors[current]
        c = 0
        while taken >> c & 1:
            c += 1
        if c == len(class_masks):
            class_masks.append(0)
        class_masks[c] |= 1 << current
        uncolored ^= 1 << current
        if not uncolored:
            break
        for u in iter_bits(rows[current] & uncolored):
            seen_colors[u] |= 1 << c
        current = max(
            iter_bits(uncolored),
            key=lambda v: (
                seen_colors[v].bit_count(),
                (rows[v] & uncolored).bit_count(),
                -v,
            ),
        )
    return class_masks


def scan_rlf_coloring(g: TermGraph) -> list[int]:
    """Recursive-largest-first coloring.

    Builds one color class at a time: seed with the largest-degree vertex
    of the uncolored subgraph, then, among uncolored vertices not adjacent
    to the class (candidate set), repeatedly add the one with the most
    neighbors among the excluded uncolored vertices, until no candidate
    remains.  Repeats on the rest of the graph with the next color.
    """
    n = g.n
    rows = g.rows
    classes = []
    uncolored = (1 << n) - 1
    while uncolored:
        seed = max(
            iter_bits(uncolored),
            key=lambda v: ((rows[v] & uncolored).bit_count(), -v),
        )
        class_mask = 1 << seed
        blocked = rows[seed] & uncolored  # uncolored vertices adjacent to the class
        candidates = uncolored & ~blocked & ~class_mask
        while candidates:
            v = max(
                iter_bits(candidates),
                key=lambda u: ((rows[u] & blocked).bit_count(), -u),
            )
            class_mask |= 1 << v
            blocked |= rows[v] & candidates
            candidates &= ~(rows[v] | (1 << v))
        classes.append(class_mask)
        uncolored &= ~class_mask
    return classes


class _MergeState:
    """Shared bookkeeping for the two merge-based schemes (DB, COSINE).

    Non-adjacent supervertices are merged (neighborhoods united) until the
    merged graph is complete; each surviving supervertex is one color.  A
    supervertex is identified by the smallest original index it contains,
    which merging into the smaller endpoint preserves.
    """

    def __init__(self, g: TermGraph):
        self.active = (1 << g.n) - 1
        self.rows = list(g.rows)
        self.members = {v: 1 << v for v in range(g.n)}

    def non_neighbors(self, v: int) -> int:
        return self.active & ~self.rows[v] & ~(1 << v)

    def common_neighbors(self, u: int, v: int) -> int:
        return (self.rows[u] & self.rows[v] & self.active).bit_count()

    def merge(self, u: int, v: int) -> None:
        """Merge v into u (requires u < v): the union neighborhood."""
        bit_u, bit_v = 1 << u, 1 << v
        for w in iter_bits(self.rows[v]):
            self.rows[w] = (self.rows[w] & ~bit_v) | bit_u
        self.rows[u] = (self.rows[u] | self.rows[v]) & ~(bit_u | bit_v)
        self.rows[v] = 0
        self.members[u] |= self.members[v]
        del self.members[v]
        self.active ^= bit_v

    def is_complete(self) -> bool:
        return all(
            self.rows[v] == self.active & ~(1 << v) for v in iter_bits(self.active)
        )

    def to_classes(self) -> list[int]:
        if not self.is_complete():
            raise AssertionError("merge process terminated on a non-complete graph")
        return [self.members[sv] for sv in sorted(self.members)]


def scan_db_coloring(g: TermGraph) -> list[int]:
    """Pairwise-merge coloring, best pair globally.

    Repeatedly merges the non-adjacent supervertex pair with the most
    common neighbors (ties: lexicographically smallest pair) until the
    merged graph is complete; each supervertex is one color.
    """
    if g.n == 0:
        return []
    state = _MergeState(g)
    rows = state.rows
    while True:
        best_pair = None
        best_count = -1
        later = state.active
        while later:
            bit_u = later & -later
            later ^= bit_u
            u = bit_u.bit_length() - 1
            row_u = rows[u]
            # Exact skip: only a count above best_count wins, and every
            # common neighbor of (u, v) lies in row u.  Merging clears
            # merged-away vertices from every row, so no ``& active``.
            if row_u.bit_count() <= best_count:
                continue
            partners = later & ~row_u
            while partners:
                bit_v = partners & -partners
                partners ^= bit_v
                v = bit_v.bit_length() - 1
                count = (row_u & rows[v]).bit_count()
                if count > best_count:
                    best_count = count
                    best_pair = (u, v)
        if best_pair is None:
            break
        state.merge(*best_pair)
    return state.to_classes()


def merge_cosine_coloring(g: TermGraph) -> list[int]:
    """Pairwise-merge coloring, chained from the first non-adjacent pair.

    Merges the lexicographically first non-adjacent pair, then keeps
    merging the freshly merged supervertex with whichever non-neighbor
    shares the most common neighbors with it (ties by index).  When the
    current supervertex has no non-neighbor left, starts over with the
    next first pair; stops when the merged graph is complete.
    """
    if g.n == 0:
        return []
    state = _MergeState(g)
    while True:
        first_pair = None
        for u in iter_bits(state.active):
            rest = state.non_neighbors(u) >> (u + 1) << (u + 1)
            if rest:
                first_pair = (u, (rest & -rest).bit_length() - 1)
                break
        if first_pair is None:
            break
        current = first_pair[0]
        state.merge(current, first_pair[1])
        while True:
            options = state.non_neighbors(current)
            if not options:
                break
            partner = max(
                iter_bits(options),
                key=lambda w: (state.common_neighbors(current, w), -w),
            )
            state.merge(current, partner)
    return state.to_classes()


def brute_force_max_clique(g: TermGraph) -> set[int]:
    """Largest clique by enumerating all vertex subsets (small graphs only)."""
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.rows[i] >> j & 1 for i, j in itertools.combinations(combo, 2)):
                return set(combo)
    return set()


def chromatic_number_dp(g: TermGraph) -> int:
    """Exact chromatic number by subset dynamic programming.

    chi(S) = 1 + min over independent subsets I of S containing S's lowest
    vertex of chi(S \\ I).  O(3^n); fine for n <= 12.
    """
    n = g.n
    if n == 0:
        return 0
    rows = g.rows
    full = (1 << n) - 1
    chi = [0] * (full + 1)
    for subset in range(1, full + 1):
        low_bit = subset & -subset
        low = low_bit.bit_length() - 1
        rest = subset & ~low_bit
        best = None
        # Enumerate independent sets I with low in I, I subset of subset.
        stack = [(low_bit, rest & ~rows[low])]
        while stack:
            iset, candidates = stack.pop()
            score = 1 + chi[subset & ~iset]
            if best is None or score < best:
                best = score
            while candidates:
                vbit = candidates & -candidates
                candidates ^= vbit
                v = vbit.bit_length() - 1
                stack.append((iset | vbit, candidates & ~rows[v]))
        chi[subset] = best
    return chi[full]


def min_clique_cover_size(g: TermGraph) -> int:
    return chromatic_number_dp(g.complement())


# Exact clique cover is NP-hard beyond desk scale; reject instead of hanging.
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
    """A provably optimal proper coloring, as class bitmasks in color order:
    the fewest colors k for which an exhaustive backtracking search
    succeeds, trying k upward from the size of a greedy clique (no smaller
    k can succeed).

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
    coloring of the complement graph: the optimum every heuristic's cover
    is measured against.

    Raises:
        CapacityError: more than :data:`EXACT_MCC_MAX_VERTICES` vertices.
    """
    _check_capacity(g)
    return cover_from_coloring(minimum_coloring(g.complement()))


def is_clique(g: TermGraph, mask: int) -> bool:
    return all(g.rows[i] >> j & 1 for i, j in itertools.combinations(members(mask), 2))


def is_proper_coloring(g: TermGraph, classes) -> bool:
    """``classes`` (vertex bitmasks, one per color) are non-empty, partition
    the vertices of ``g``, and no class holds both ends of an edge."""
    color_of = {}
    for c, mask in enumerate(classes):
        if mask <= 0:
            return False
        vertices = members(mask)
        if any(v >= g.n or v in color_of for v in vertices):
            return False
        color_of.update(dict.fromkeys(vertices, c))
    return len(color_of) == g.n and all(color_of[i] != color_of[j] for i, j in edge_set(g))


def random_gnp(n: int, p: float, seed: int) -> TermGraph:
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def random_word(rng: random.Random, n_qubits: int, max_weight: int | None = None) -> PauliWord:
    weight = rng.randint(0, max_weight if max_weight is not None else n_qubits)
    qubits = rng.sample(range(n_qubits), min(weight, n_qubits))
    axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
    return PauliWord({q: rng.choice(axes) for q in qubits})


def random_hamiltonian(
    rng: random.Random, n_terms: int, n_qubits: int, max_weight: int | None = None
) -> Hamiltonian:
    """``n_terms`` distinct :func:`random_word` words with random
    coefficients.

    Raises:
        ValueError: fewer than ``n_terms`` distinct words have weight at
            most ``max_weight`` on ``n_qubits`` qubits; checked before any
            draw, so the words of every valid call are unchanged.
    """
    top = n_qubits if max_weight is None else min(max_weight, n_qubits)
    distinct = sum(math.comb(n_qubits, weight) * 3**weight for weight in range(top + 1))
    if n_terms > distinct:
        raise ValueError(
            f"{n_terms} terms requested, but only {distinct} distinct words have "
            f"weight at most {top} on {n_qubits} qubits"
        )
    words: dict[PauliWord, float] = {}
    while len(words) < n_terms:
        word = random_word(rng, n_qubits, max_weight)
        if word not in words:
            words[word] = rng.uniform(-2.0, 2.0)
    terms = [HamiltonianTerm(coefficient, word) for word, coefficient in words.items()]
    return Hamiltonian(tuple(terms), n_qubits)


class ReferencePauliWord(PauliWord):
    """A word laid out by the package's earlier constructor, which kept its
    factors as sorted ``(qubit, axis)`` items beside the masks.  Its
    iteration, string and highest qubit read those items, so comparing it
    with a package word checks the package's mask decode; it hashes its
    masks, as equal package words do."""

    __slots__ = ("_items",)

    def __init__(self, factors: Mapping[int, PauliAxis | str] | Iterable[tuple[int, PauliAxis | str]] = ()):
        pairs = factors.items() if isinstance(factors, Mapping) else factors
        collected: dict[int, PauliAxis] = {}
        for qubit, axis in pairs:
            qubit = int(qubit)
            axis = _as_axis(axis)
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if qubit > MAX_QUBIT_INDEX:
                raise ValueError(f"qubit index {qubit} above the limit {MAX_QUBIT_INDEX}")
            if qubit in collected:
                raise ValueError(f"qubit {qubit} listed more than once")
            if axis is PauliAxis.I:
                continue
            collected[qubit] = axis
        self._items: tuple[tuple[int, PauliAxis], ...] = tuple(sorted(collected.items()))
        x_mask = 0
        z_mask = 0
        for qubit, axis in self._items:
            bit = 1 << qubit
            if axis is not PauliAxis.Z:
                x_mask |= bit
            if axis is not PauliAxis.X:
                z_mask |= bit
        self._x_mask = x_mask
        self._z_mask = z_mask
        self._hash = hash((x_mask, z_mask))

    @property
    def max_qubit(self) -> int | None:
        return self._items[-1][0] if self._items else None

    def __iter__(self):
        return iter(self._items)

    def __str__(self) -> str:
        return " ".join(f"{axis.value}{qubit}" for qubit, axis in self._items)


_FACTOR_RE = re.compile(r"([XYZxyz])([0-9]+)$")


def _bounded_int(digits: str, limit: int, what: str, line_no: int, column: int | None = None) -> int:
    """The package's earlier index bound: strip, then compare digit counts."""
    significant = digits.lstrip("0") or "0"
    value = int(significant) if len(significant) <= len(str(limit)) else limit + 1
    if value > limit:
        raise ParseError(f"{what} above the limit {limit}", line_no, column)
    return value


def _reference_parse_word(body: str, body_offset: int, line_no: int) -> PauliWord:
    factors: dict[int, PauliAxis] = {}
    for match in re.finditer(r"\S+", body):
        token = match.group(0)
        column = body_offset + match.start() + 1
        factor = _FACTOR_RE.fullmatch(token)
        if factor is None:
            if _NEGATIVE_FACTOR_RE.fullmatch(token):
                raise ParseError(f"negative qubit index in factor {token!r}", line_no, column)
            raise ParseError(f"bad Pauli factor {token!r}", line_no, column)
        qubit = _bounded_int(factor.group(2), MAX_QUBIT_INDEX, "qubit index", line_no, column)
        if qubit in factors:
            raise ParseError(
                f"qubit {qubit} assigned more than one factor in one word", line_no, column
            )
        factors[qubit] = PauliAxis(factor.group(1).upper())
    return ReferencePauliWord(factors)


def reference_parse_hamiltonian(source: str | Iterable[str]) -> Hamiltonian:
    """The package's earlier ``parse_hamiltonian``: every factor checked by
    the parser and again by the word's constructor."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    declared_qubits: int | None = None
    header_line = 0
    merged: dict[PauliWord, float] = {}
    max_seen = -1
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header = _HEADER_RE.match(stripped)
            if header is not None:
                if declared_qubits is not None:
                    raise ParseError("duplicate 'qubits:' header", line_no)
                declared_qubits = _bounded_int(
                    header.group(1), MAX_QUBIT_INDEX + 1, "declared qubit count", line_no
                )
                header_line = line_no
            continue
        indent = len(line) - len(line.lstrip())
        match = _TERM_RE.match(stripped)
        if match is None:
            raise ParseError("expected 'coefficient [factors]'", line_no, indent + 1)
        if match.group("tail").strip():
            raise ParseError(
                f"unexpected text after ']': {match.group('tail').strip()!r}",
                line_no,
                indent + match.start("tail") + 1,
            )
        coefficient = _parse_coefficient(match.group("coef"), line_no, indent + 1)
        word = _reference_parse_word(match.group("body"), indent + match.start("body"), line_no)
        if word.max_qubit is not None:
            max_seen = max(max_seen, word.max_qubit)
        if word in merged:
            total = merged[word] + coefficient
            if not math.isfinite(total):
                raise ParseError(
                    f"coefficients of [{word}] sum to {total!r}", line_no, indent + 1
                )
            merged[word] = total
        else:
            merged[word] = coefficient
    if not merged and declared_qubits is None:
        raise ParseError("empty input: no Hamiltonian terms found", max(line_no, 1))
    if declared_qubits is not None and max_seen >= declared_qubits:
        raise ParseError(
            f"header declares {declared_qubits} qubits but qubit {max_seen} is used",
            header_line,
        )
    terms = [
        HamiltonianTerm(coefficient, word)
        for word, coefficient in merged.items()
        if abs(coefficient) >= COEFFICIENT_PRUNE_THRESHOLD
    ]
    return Hamiltonian(tuple(terms), max_seen + 1 if declared_qubits is None else declared_qubits)

"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written from first principles (dense
matrices, subset enumeration, subset dynamic programming) and shares no
algorithmic machinery with the package under test.  The exceptions:
:func:`relabelling_clique_removal` runs the package's own clique finders on
rebuilt subgraphs, so that it checks only the removal loop around them, and
:func:`scan_smallest_last_order` / :func:`scan_dsatur_coloring` are the
package's earlier full-scan orderings, the reference for its bit-sliced
counters.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import numpy as np

from qwcover import (
    Coloring,
    Hamiltonian,
    Heuristic,
    PauliAxis,
    PauliWord,
    TermGraph,
    fully_commute,
    iter_bits,
    max_clique_bkt,
    qubit_wise_commute,
    ramsey_clique,
)

PAULI_MATRICES = {
    PauliAxis.I: np.eye(2, dtype=complex),
    PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def word_matrix(word: PauliWord, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli word (qubit 0 is the first factor)."""
    factors = [PAULI_MATRICES[word.axis_on(q)] for q in range(n_qubits)]
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
        ma = PAULI_MATRICES[a.axis_on(q)]
        mb = PAULI_MATRICES[b.axis_on(q)]
        if not matrices_commute(ma, mb):
            return False
    return True


def qwc_implies_commute(a: PauliWord, b: PauliWord) -> bool:
    """QWC pairs must also commute ordinarily: ``(not qubit_wise_commute(a,
    b)) or fully_commute(a, b)``, which holds for all word pairs."""
    return (not qubit_wise_commute(a, b)) or fully_commute(a, b)


def induced_subgraph(g: TermGraph, kept: list[int]) -> TermGraph:
    """Subgraph on ``kept``, relabelled ``0..len(kept)-1`` in that order."""
    return TermGraph.from_edges(
        len(kept),
        [
            (a, b)
            for a, b in itertools.combinations(range(len(kept)), 2)
            if g.has_edge(kept[a], kept[b])
        ],
    )


def relabelling_clique_removal(g: TermGraph, finder: Heuristic) -> tuple[frozenset[int], ...]:
    """Groups of clique-removal cover computed on rebuilt graphs.

    After every extraction the induced subgraph of the remaining vertices
    is rebuilt and relabelled in ascending order, the finder runs on it
    with no mask, and its labels are mapped back.  This is the reference
    for the library's alive-mask removal, which must give the same groups.
    """
    find = max_clique_bkt if finder is Heuristic.BKT else ramsey_clique
    kept = list(range(g.n))
    groups = []
    while kept:
        local = find(induced_subgraph(g, kept))
        group = frozenset(kept[v] for v in local)
        groups.append(group)
        kept = [v for v in kept if v not in group]
    return tuple(groups)


def recursive_ramsey_clique(g: TermGraph, alive: int) -> frozenset[int]:
    """``ramsey_clique`` restricted to ``alive``, as plain recursion.

    R(S) pivots on the lowest vertex v of S and returns the larger of
    {v} + R(S & N(v)) and R(S - N(v) - {v}), the pivot branch on ties; the
    result is then extended greedily in ascending index order.
    """

    def ramsey(candidates: frozenset[int]) -> frozenset[int]:
        if not candidates:
            return frozenset()
        v = min(candidates)
        neighbors = frozenset(g.neighbors(v))
        with_pivot = {v} | ramsey(candidates & neighbors)
        without_pivot = ramsey(candidates - neighbors - {v})
        return with_pivot if len(with_pivot) >= len(without_pivot) else without_pivot

    vertices = [v for v in range(g.n) if alive >> v & 1]
    clique = set(ramsey(frozenset(vertices)))
    for v in vertices:
        if v not in clique and all(g.has_edge(v, u) for u in clique):
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


def scan_dsatur_coloring(g: TermGraph) -> Coloring:
    """Saturation-driven coloring.

    Colors the largest-degree vertex first, then repeatedly the uncolored
    vertex adjacent to the most distinct colors (its saturation), breaking
    ties by larger degree within the uncolored subgraph, then by index.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    rows = g.rows
    color_of = [0] * n
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
        color_of[current] = c
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
    return Coloring(tuple(color_of), len(class_masks))


def brute_force_max_clique(g: TermGraph) -> set[int]:
    """Largest clique by enumerating all vertex subsets (small graphs only)."""
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(i, j) for i, j in itertools.combinations(combo, 2)):
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


def is_clique(g: TermGraph, vertices) -> bool:
    return all(
        g.has_edge(i, j) for i, j in itertools.combinations(sorted(vertices), 2)
    )


def is_proper_coloring(g: TermGraph, color_of) -> bool:
    return all(color_of[i] != color_of[j] for i, j in g.edges())


def random_gnp(n: int, p: float, seed: int) -> TermGraph:
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return TermGraph.from_edges(n, edges)


def random_word(rng: random.Random, n_qubits: int, max_weight: int | None = None) -> PauliWord:
    weight = rng.randint(0, max_weight if max_weight is not None else n_qubits)
    qubits = rng.sample(range(n_qubits), min(weight, n_qubits))
    axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
    return PauliWord({q: rng.choice(axes) for q in qubits})


def random_hamiltonian(
    rng: random.Random, n_terms: int, n_qubits: int, max_weight: int | None = None
) -> Hamiltonian:
    words: dict[PauliWord, float] = {}
    while len(words) < n_terms:
        word = random_word(rng, n_qubits, max_weight)
        if word not in words:
            words[word] = rng.uniform(-2.0, 2.0)
    return Hamiltonian.from_terms(
        [(coefficient, word) for word, coefficient in words.items()],
        n_qubits=n_qubits,
    )

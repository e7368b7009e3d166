"""qwcover: group qubit-Hamiltonian terms for simultaneous measurement.

Builds the qubit-wise-commutativity graph of a Hamiltonian's Pauli terms
and partitions it into as few cliques as practical; each clique is a set
of terms measurable in one shared tensor-product basis.  Nine deterministic
solvers are provided (seven complement-graph colorings and two
clique-removal schemes) plus an exact small-instance solver for testing.
"""

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
from .cover import (
    BasisConflictError,
    CliqueCover,
    CoverStats,
    Heuristic,
    InvalidCoverError,
    basis_of_group,
    compute_stats,
    validate_cover,
)
from .exact import EXACT_MCC_MAX_VERTICES, exact_mcc, minimum_coloring
from .graph import (
    MAX_GRAPH_VERTICES,
    CapacityError,
    TermGraph,
    build_qwc_graph,
    iter_bits,
)
from .pauli import (
    COEFFICIENT_PRUNE_THRESHOLD,
    IMAGINARY_TOLERANCE,
    MAX_QUBIT_INDEX,
    Hamiltonian,
    HamiltonianTerm,
    ParseError,
    PauliAxis,
    PauliWord,
    format_hamiltonian,
    parse_hamiltonian,
    qubit_wise_commute,
)
from .removal import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    clique_removal_cover,
    max_clique_bkt,
    ramsey_clique,
)
from .solvers import solve_mcc

__version__ = "0.1.0"

__all__ = [
    "BasisConflictError",
    "BudgetExceededError",
    "CapacityError",
    "CliqueCover",
    "CoverStats",
    "COEFFICIENT_PRUNE_THRESHOLD",
    "DEFAULT_NODE_BUDGET",
    "EXACT_MCC_MAX_VERTICES",
    "Hamiltonian",
    "HamiltonianTerm",
    "Heuristic",
    "IMAGINARY_TOLERANCE",
    "InvalidCoverError",
    "MAX_GRAPH_VERTICES",
    "MAX_QUBIT_INDEX",
    "ParseError",
    "PauliAxis",
    "PauliWord",
    "TermGraph",
    "basis_of_group",
    "build_qwc_graph",
    "clique_removal_cover",
    "compute_stats",
    "cosine_coloring",
    "cover_from_coloring",
    "db_coloring",
    "dsatur_coloring",
    "exact_mcc",
    "format_hamiltonian",
    "input_order",
    "iter_bits",
    "largest_first_order",
    "max_clique_bkt",
    "minimum_coloring",
    "parse_hamiltonian",
    "qubit_wise_commute",
    "ramsey_clique",
    "rlf_coloring",
    "sequential_coloring",
    "smallest_last_order",
    "solve_mcc",
    "validate_cover",
]

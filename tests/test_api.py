"""The package's public API is the union of its modules' ``__all__`` lists."""

import importlib

import qwcover
import qwcover.cli

MODULES = ("cover", "graph", "pauli", "removal", "solvers")

# The public names, pinned: each change to the API changes this set.
PUBLIC_NAMES = {
    "BasisConflictError", "BudgetExceededError", "COEFFICIENT_PRUNE_THRESHOLD",
    "CapacityError", "CoverStats", "DEFAULT_BKT_BUDGET",
    "Hamiltonian", "HamiltonianTerm", "Heuristic", "IMAGINARY_TOLERANCE",
    "InvalidCoverError", "MAX_GRAPH_VERTICES", "MAX_QUBIT_INDEX", "ParseError",
    "PauliAxis", "PauliWord", "TermGraph", "basis_of_group", "build_qwc_graph",
    "compute_stats", "format_hamiltonian", "iter_bits", "parse_hamiltonian",
    "qubit_wise_commute", "solve_mcc", "validate_cover",
}


def _modules():
    return [importlib.import_module(f"qwcover.{name}") for name in MODULES]


def test_all_joins_the_modules_lists_without_duplicates():
    joined = [name for module in _modules() for name in module.__all__]
    assert list(qwcover.__all__) == joined
    assert len(set(joined)) == len(joined)


def test_each_name_is_its_defining_modules_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(qwcover, name) is getattr(module, name), (module.__name__, name)


def test_cli_names_not_exported():
    for name in qwcover.cli.__all__:
        assert name not in qwcover.__all__
        assert not hasattr(qwcover, name)


def test_names_the_benchmark_tracer_wraps_resolve():
    # perfbench/spans.py wraps these unexported module globals by name.
    assert callable(qwcover.solvers.cover_from_coloring)
    assert callable(qwcover.removal.ramsey_clique)


def test_public_names_unchanged():
    assert len(PUBLIC_NAMES) == 26
    assert set(qwcover.__all__) == PUBLIC_NAMES


from __future__ import annotations

import importlib
import os
from pathlib import Path

import pytest

# numpy's OpenBLAS would otherwise start a worker thread on import, and
# `run --algorithm all` forks only from a single-threaded process; one BLAS
# thread keeps its forked path under test.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import oracles  # imports numpy, so only after the thread default
from qwcover import Hamiltonian, TermGraph, build_qwc_graph, parse_hamiltonian

# The 7-term, 4-qubit demonstration Hamiltonian used throughout: four
# nested all-Z words plus three words sharing an X2 X3 tail.  Its QWC
# graph splits into a 4-clique and a 3-clique joined by two cross edges,
# and its minimum clique cover has exactly two groups.
DEMO_TEXT = """\
# qubits: 4
1.0 [Z0]
1.0 [Z0 Z1]
1.0 [Z0 Z1 Z2]
1.0 [Z0 Z1 Z2 Z3]
1.0 [X2 X3]
1.0 [Y0 X2 X3]
1.0 [Y0 Y1 X2 X3]
"""

# Covers are tuples of group bitmasks, term i as bit i.
DEMO_MINIMUM_GROUPS = frozenset({0b0001111, 0b1110000})  # {0, 1, 2, 3}, {4, 5, 6}

# A legal but non-minimal 3-group cover of the same Hamiltonian:
# {1, 2, 3}, {0, 4}, {5, 6}.
DEMO_THREE_GROUP_COVER = (0b0001110, 0b0010001, 0b1100000)


@pytest.fixture(scope="session")
def demo_hamiltonian() -> Hamiltonian:
    return parse_hamiltonian(DEMO_TEXT)


@pytest.fixture(scope="session")
def demo_graph(demo_hamiltonian) -> TermGraph:
    return build_qwc_graph(demo_hamiltonian)


@pytest.fixture()
def demo_file(tmp_path) -> Path:
    path = tmp_path / "demo.ham"
    path.write_text(DEMO_TEXT)
    return path


def removal_trap_graph() -> TermGraph:
    """Two 4-cliques whose unique 5-vertex maximum clique straddles both.

    Vertices 0-3 and 4-7 form cliques; the cross edges {0,1,2}x{4,5} make
    {0,1,2,4,5} the unique maximum clique.  Extracting it strands {3} and
    {6,7} into two more groups (cover of 3), while {0..3}, {4..7} is a
    cover of 2.
    """
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges += [(a, b) for a in (0, 1, 2) for b in (4, 5)]
    return oracles.graph_from_edges(8, edges)


def benchmark_graphs(monkeypatch, workload: str) -> dict[str, TermGraph]:
    """The QWC graphs of a benchmark workload's seed-1 inputs, by input
    name, in request order."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    corpus = importlib.import_module("corpus")
    texts = {request.input.name: request.input.text for request in corpus.build(workload, 1)}
    return {name: build_qwc_graph(parse_hamiltonian(text)) for name, text in texts.items()}


def external_data_dir() -> Path:
    return Path(os.environ.get("QWCOVER_DATA_DIR", "data/external"))

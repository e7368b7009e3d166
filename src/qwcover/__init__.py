"""qwcover: group qubit-Hamiltonian terms for simultaneous measurement.

Builds the qubit-wise-commutativity graph of a Hamiltonian's Pauli terms
and partitions it into as few cliques as practical; each clique is a set
of terms measurable in one shared tensor-product basis.  Minimum clique
cover is NP-hard, so nine deterministic heuristics are provided: seven
complement-graph colorings and two clique-removal schemes.
"""

# The public API is every name a module lists in its own ``__all__``.
from .coloring import *
from .cover import *
from .graph import *
from .pauli import *
from .removal import *
from .solvers import *

__version__ = "0.1.0"

__all__ = (
    coloring.__all__ + cover.__all__ + graph.__all__ + pauli.__all__
    + removal.__all__ + solvers.__all__
)

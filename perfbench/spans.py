"""In-memory spans around the package's layer boundaries.

The tracer wraps public functions at the name each caller looks up (a
``from .x import f`` binding lives in the importing module, so patching
the defining module would not reach it) and records one span per call:
name, start, end, parent span and request id.  Nothing inside the package
is edited; :func:`install` returns an undo function.

Span names are layer-qualified: ``cli.main``, ``pauli.parse``,
``graph.build``, ``graph.complement``, ``solve.<heuristic>``,
``coloring.cover``, ``removal.find``, ``removal.relabel``,
``cover.validate``, ``cover.bases`` and ``cover.stats``.  A function the
package no longer has is skipped, so its metric reads zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections.abc import Callable

COLORING = ("gc", "lf", "sl", "dsatur", "rlf", "db", "cosine")
REMOVAL = ("ramsey", "bkt")


def _heuristic(args: tuple, kwargs: dict) -> str:
    heuristic = kwargs["heuristic"] if "heuristic" in kwargs else args[1]
    return heuristic.value


# (module, attribute path, span name or a function of the call's arguments)
_TARGETS: tuple[tuple[str, str, object], ...] = (
    ("qwcover.cli", "main", "cli.main"),
    ("qwcover.cli", "parse_hamiltonian", "pauli.parse"),
    ("qwcover.cli", "build_qwc_graph", "graph.build"),
    ("qwcover.graph", "TermGraph.complement", "graph.complement"),
    ("qwcover.cli", "solve_mcc", lambda args, kwargs: "solve." + _heuristic(args, kwargs)),
    ("qwcover.solvers", "cover_from_coloring", "coloring.cover"),
    ("qwcover.removal", "max_clique_bkt", "removal.find"),
    ("qwcover.removal", "ramsey_clique", "removal.find"),
    ("qwcover.graph", "TermGraph.subgraph_without", "removal.relabel"),
    ("qwcover.cli", "validate_cover", "cover.validate"),
    ("qwcover.cli", "validate_cover_words", "cover.validate"),
    ("qwcover.cli", "basis_of_group", "cover.bases"),
    ("qwcover.cli", "compute_stats", "cover.stats"),
)

# Per-layer metrics in report order; every one is printed, zero when its
# layer did not run.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("pauli.parse_s", "s"),
    ("pauli.terms", "count"),
    ("graph.build_s", "s"),
    ("graph.complement_s", "s"),
    ("graph.edges", "count"),
    *((f"coloring.{h}_s", "s") for h in COLORING),
    ("coloring.cover_s", "s"),
    *((f"removal.{h}_s", "s") for h in REMOVAL),
    ("removal.find_s", "s"),
    ("removal.relabel_s", "s"),
    ("removal.extractions", "count"),
    ("cover.validate_s", "s"),
    ("cover.bases_s", "s"),
    ("cover.stats_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans of one traced pass, kept as tuples
    ``(name, start, end, parent index or -1, request id)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.request = -1
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.request))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _counted(name: str, result) -> tuple[str, int] | None:
    if name == "pauli.parse":
        return "pauli.terms", len(result.terms)
    if name == "graph.build":
        return "graph.edges", sum(row.bit_count() for row in result.rows) // 2
    if name == "removal.find":
        return "removal.extractions", 1
    return None


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target that exists; return a function that unwraps them."""
    undo = []
    for module_name, path, namer in _TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            continue

        def wrapper(*args, __fn=original, __namer=namer, **kwargs):
            name = __namer if isinstance(__namer, str) else __namer(args, kwargs)
            result = tracer.call(name, __fn, args, kwargs)
            counted = _counted(name, result)
            if counted is not None:
                tracer.count(*counted)
            return result

        setattr(owner, attr, functools.wraps(original)(wrapper))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` aside).

    A span's self time is its duration minus its children's durations.
    Coloring solvers report self time (their ``coloring.cover`` child
    excluded); removal solvers report their whole span, which
    ``removal.find_s`` and ``removal.relabel_s`` split.
    """
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    self_keys = {
        "cli.main": "cli.self_s",
        "pauli.parse": "pauli.parse_s",
        "graph.build": "graph.build_s",
        "graph.complement": "graph.complement_s",
        "coloring.cover": "coloring.cover_s",
        "removal.find": "removal.find_s",
        "removal.relabel": "removal.relabel_s",
        "cover.validate": "cover.validate_s",
        "cover.bases": "cover.bases_s",
        "cover.stats": "cover.stats_s",
        **{f"solve.{h}": f"coloring.{h}_s" for h in COLORING},
    }
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        duration = end - start
        if name in self_keys:
            out[self_keys[name]] += duration - child_time[index]
        elif name.startswith("solve.") and name[6:] in REMOVAL:
            out[f"removal.{name[6:]}_s"] += duration
    for name, value in tracer.counts.items():
        out[name] = float(value)
    return out


def median_layers(passes: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    out = {name: statistics.median(p[name] for p in passes) for name, _ in LAYER_METRICS}
    out["trace.overhead_s"] = overhead
    return out

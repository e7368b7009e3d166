"""Checks of `run --format json` reports that do not trust the graph.

Every group is re-checked pairwise from the Pauli words the benchmark
generated, each printed basis is compared with the axes its group's words
use, and the groups must partition ``0..n-1``.
"""

from __future__ import annotations

import json
import statistics

from corpus import Input, Request, Word

_AXIS = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def qwc(a: Word, b: Word) -> bool:
    """Qubit-wise commutation: equal axes wherever both words act."""
    (xa, za), (xb, zb) = a, b
    return not ((xa ^ xb) | (za ^ zb)) & (xa | za) & (xb | zb)


def _expected_basis(words: tuple[Word, ...], group: list[int]) -> dict[str, str]:
    basis: dict[str, str] = {}
    for index in group:
        x, z = words[index]
        support = x | z
        while support:
            q = (support & -support).bit_length() - 1
            basis.setdefault(str(q), _AXIS[(x >> q & 1, z >> q & 1)])
            support &= support - 1
    return basis


def check_result(record: dict, source: Input) -> tuple[str | None, int]:
    """``(problem or None, group count)`` for one heuristic's record."""
    for key in ("error", "skipped"):
        if key in record:
            return f"{key}: {record[key]}", 0
    words = source.words
    n = len(words)
    groups = [group["terms"] for group in record["groups"]]
    if record["n_groups"] != len(groups) or record["total_terms"] != n:
        return "group or term count disagrees with the groups", len(groups)
    flat = [index for group in groups for index in group]
    if sorted(flat) != list(range(n)) or any(not group for group in groups):
        return "groups do not partition 0..n-1", len(groups)
    sizes = [len(group) for group in groups]
    if record["max_size"] != max(sizes) or abs(record["size_std"] - statistics.pstdev(sizes)) > 1e-9:
        return "size statistics disagree with the groups", len(groups)
    for number, (group, printed) in enumerate(zip(groups, record["groups"])):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not qwc(words[a], words[b]):
                    return f"group {number}: terms {a} and {b} do not qubit-wise commute", len(groups)
        if printed["basis"] != _expected_basis(words, group):
            return f"group {number}: basis disagrees with its words", len(groups)
    return None, len(groups)


def check_report(text: str, request: Request, path: str) -> list[tuple[str, str | None, int]]:
    """``(heuristic, problem or None, group count)`` for each requested
    heuristic; a report that cannot be read fails every one of them."""
    source = request.input
    try:
        report = json.loads(text)
        header_ok = (report["input"], report["n_qubits"], report["total_terms"]) == (
            path, source.n_qubits, len(source.words))
        results = report["results"]
        names = [record["heuristic"] for record in results]
    except (ValueError, KeyError, TypeError) as exc:
        return [(h, f"unreadable report: {exc!r}", 0) for h in request.heuristics]
    if not header_ok or names != list(request.heuristics):
        return [(h, "report header or heuristic list is wrong", 0) for h in request.heuristics]
    out = []
    for name, record in zip(names, results):
        try:
            problem, n_groups = check_result(record, source)
        except (KeyError, TypeError, IndexError) as exc:
            problem, n_groups = f"malformed record: {exc!r}", 0
        out.append((name, problem, n_groups))
    return out

"""Command-line front end.

Two subcommands: ``run`` solves one Hamiltonian file with the selected
heuristic(s) and emits the full grouping report; ``compare`` solves one or
more files and emits a grid of group counts (one row per input, one column
per heuristic).

Every cover is checked once against the graph, and each group's basis is
derived from its Pauli words, which fails on any non-QWC pair.

Exit codes: 0 success, 1 usage, input-read or output error, 2 parse error, 3
budget/capacity error.  Reports are deterministic; wall-clock timings are
emitted only with ``run --timings``, keeping reruns byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .cover import CoverStats, Heuristic, basis_of_group, compute_stats, validate_cover
from .graph import CapacityError, TermGraph, build_qwc_graph, iter_bits
from .pauli import Hamiltonian, ParseError, PauliAxis, parse_hamiltonian
from .removal import DEFAULT_NODE_BUDGET, BudgetExceededError
from .solvers import solve_mcc

__all__ = ["console_main", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

# `--algorithm all` skips the only super-polynomial solver on graphs
# larger than this unless overridden.
DEFAULT_BKT_SKIP_ABOVE = 5000


class _UsageError(Exception):
    """A missing or unreadable input file or an unwritable report path."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2
    for parse errors, so remap usage problems to 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(lowest: int):
    """An argparse ``type=`` that rejects integers below ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


@dataclass
class _HeuristicResult:
    heuristic: Heuristic
    cover: tuple[int, ...] | None = None
    stats: CoverStats | None = None
    bases: list[dict[int, PauliAxis]] | None = None
    wall_ms: float = 0.0
    error: str | None = None
    skipped: str | None = None


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused by every later
    ``main`` call in the process (parsing leaves it unchanged)."""
    parser = _Parser(prog="qwcover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    algorithm_names = [h.value for h in Heuristic] + ["all"]

    def add_common(p: _Parser) -> None:
        p.add_argument("--input", action="append", required=True,
                       help="Hamiltonian file; repeatable for 'compare'")
        p.add_argument("--algorithm", choices=algorithm_names, default="all")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--bkt-budget", type=_int_at_least(1), default=DEFAULT_NODE_BUDGET,
                       help="node budget for each exact clique search, all its steps counted")
        p.add_argument("--bkt-skip-above", type=_int_at_least(0), default=DEFAULT_BKT_SKIP_ABOVE,
                       help="with --algorithm all, skip bkt on graphs larger than this")

    run = sub.add_parser("run", help="solve one file and print the full report")
    add_common(run)
    run.add_argument("--timings", action="store_true",
                     help="include wall-clock milliseconds (breaks byte-identical reruns)")
    add_common(sub.add_parser("compare", help="tabulate group counts over one or more files"))
    return parser


def _selected_heuristics(name: str) -> list[Heuristic]:
    if name == "all":
        return list(Heuristic)
    return [Heuristic(name)]


def _load(path: str) -> Hamiltonian:
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise _UsageError(f"no such input file: {path}") from None
    except OSError as exc:
        raise _UsageError(f"cannot read input file {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Located as the parser locates errors: lines end at \n, \r\n or
        # \r, and columns count characters.
        prefix = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line = prefix.count("\n") + 1
        column = len(prefix) - prefix.rfind("\n")
        raise ParseError(f"invalid UTF-8 byte {data[exc.start]:#04x}", line, column) from None
    return parse_hamiltonian(text)


def _solve_one(
    h: Hamiltonian,
    g: TermGraph,
    heuristic: Heuristic,
    args: argparse.Namespace,
    explicit: bool,
) -> _HeuristicResult:
    result = _HeuristicResult(heuristic)
    if heuristic is Heuristic.BKT and not explicit and g.n > args.bkt_skip_above:
        result.skipped = (
            f"graph has {g.n} vertices, above --bkt-skip-above={args.bkt_skip_above}"
        )
        return result
    started = time.perf_counter()
    try:
        cover = solve_mcc(g, heuristic, node_budget=args.bkt_budget)
    except BudgetExceededError as exc:
        result.error = str(exc)
        return result
    result.wall_ms = (time.perf_counter() - started) * 1000.0
    validate_cover(g, cover)
    result.cover = cover
    result.stats = compute_stats(cover)
    result.bases = [basis_of_group(h, group) for group in cover]
    return result


def _solve_file(path: str, args: argparse.Namespace) -> tuple[Hamiltonian, list[_HeuristicResult]]:
    h = _load(path)
    g = build_qwc_graph(h)
    heuristics = _selected_heuristics(args.algorithm)
    explicit = args.algorithm != "all"
    return h, [_solve_one(h, g, hx, args, explicit) for hx in heuristics]


def _render_run_json(path: str, h: Hamiltonian, results: list[_HeuristicResult], args) -> str:
    """The run report, byte for byte as ``json.dumps(report, indent=2)``
    lays it out, written directly into one list of pieces that is joined
    once at the end (a group's term indices and basis entries each enter
    it as one separator-joined piece).

    ``json.dumps`` renders only the free-text strings (the input path,
    skip and error messages) and the floats; heuristic names, axis letters
    and integers need no escaping.  Every group is non-empty, since
    :func:`validate_cover` has accepted its cover.
    """
    out = ['{\n  "input": ', json.dumps(path), ',\n  "n_qubits": ', str(h.n_qubits),
           ',\n  "total_terms": ', str(h.n_terms), ',\n  "results": [']
    for number, r in enumerate(results):
        out += (",\n    {" if number else "\n    {", '\n      "heuristic": "', r.heuristic.value, '"')
        if r.skipped is not None:
            out += (',\n      "skipped": ', json.dumps(r.skipped), "\n    }")
            continue
        if r.error is not None:
            out += (',\n      "error": ', json.dumps(r.error), "\n    }")
            continue
        assert r.cover is not None and r.stats is not None and r.bases is not None
        out += (',\n      "total_terms": ', str(h.n_terms),
                ',\n      "n_groups": ', str(r.stats.n_groups),
                ',\n      "max_size": ', str(r.stats.max_size),
                ',\n      "size_std": ', json.dumps(r.stats.size_std))
        if args.timings:
            out += (',\n      "wall_ms": ', json.dumps(round(r.wall_ms, 3)))
        out.append(',\n      "groups": [')
        for index, (group, basis) in enumerate(zip(r.cover, r.bases)):
            out += (",\n        {" if index else "\n        {",
                    '\n          "terms": [\n            ',
                    ",\n            ".join(map(str, iter_bits(group))),
                    '\n          ],\n          "basis": ')
            if basis:
                # ``_value_`` is the plain attribute behind the slower ``.value``.
                out += ("{\n            ",
                        ",\n            ".join([
                            f'"{q}": "{axis._value_}"' for q, axis in basis.items()]),
                        "\n          }\n        }")
            else:
                out.append("{}\n        }")
        out.append("\n      ]\n    }" if r.cover else "]\n    }")
    out.append("\n  ]\n}\n")
    return "".join(out)


def _render_run_text(path: str, h: Hamiltonian, results: list[_HeuristicResult], args) -> str:
    lines = [f"input: {path}", f"qubits: {h.n_qubits}", f"terms: {h.n_terms}"]
    for r in results:
        if r.skipped is not None:
            lines.append(f"== {r.heuristic.value}: skipped ({r.skipped})")
            continue
        if r.error is not None:
            lines.append(f"== {r.heuristic.value}: error ({r.error})")
            continue
        assert r.stats is not None and r.cover is not None and r.bases is not None
        timing = f", {r.wall_ms:.3f} ms" if args.timings else ""
        lines.append(
            f"== {r.heuristic.value}: {r.stats.n_groups} groups, "
            f"max size {r.stats.max_size}, size std {r.stats.size_std:g}{timing}"
        )
        for index, (group, basis) in enumerate(zip(r.cover, r.bases)):
            basis_text = " ".join(f"{q}:{axis}" for q, axis in basis.items()) or "(none)"
            lines.append(f"group {index} | basis: {basis_text}")
            lines.extend(f"  [{i}] {h.terms[i]}" for i in iter_bits(group))
    return "\n".join(lines) + "\n"


def _render_compare_text(rows: list[tuple[str, int, list[_HeuristicResult]]], args) -> str:
    names = [h.value for h in _selected_heuristics(args.algorithm)]
    lines = ["input total | " + " ".join(names)]
    for path, total, results in rows:
        cells = []
        for r in results:
            if r.stats is not None:
                cells.append(str(r.stats.n_groups))
            elif r.skipped is not None:
                cells.append("skip")
            else:
                cells.append("err")
        lines.append(f"{path} {total} | " + " ".join(cells))
    return "\n".join(lines) + "\n"


def _render_compare_json(rows: list[tuple[str, int, list[_HeuristicResult]]], args) -> str:
    report = []
    for path, total, results in rows:
        entry: dict = {"input": path, "total_terms": total, "groups": {}}
        for r in results:
            # Skipped and failed heuristics both read null.
            entry["groups"][r.heuristic.value] = None if r.stats is None else r.stats.n_groups
        report.append(entry)
    return json.dumps({"inputs": report}, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        # UTF-8 like the input; surrogateescape restores a path's undecodable bytes.
        Path(output).write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise _UsageError(f"cannot write report to {output}: {exc.strerror}") from None


def _exit_code(results: list[_HeuristicResult], explicit: bool) -> int:
    failures = [r for r in results if r.error is not None]
    successes = [r for r in results if r.cover is not None]
    if failures and (explicit or not successes):
        return EXIT_RESOURCE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if len(args.input) != 1:
                parser.error("'run' takes exactly one --input; use 'compare' for several")
            path = args.input[0]
            h, results = _solve_file(path, args)
            render = _render_run_json if args.format == "json" else _render_run_text
            _emit(render(path, h, results, args), args.output)
            return _exit_code(results, args.algorithm != "all")
        rows = []
        all_results: list[_HeuristicResult] = []
        for path in args.input:
            h, results = _solve_file(path, args)
            rows.append((path, h.n_terms, results))
            all_results.extend(results)
        render = _render_compare_json if args.format == "json" else _render_compare_text
        _emit(render(rows, args), args.output)
        return _exit_code(all_results, args.algorithm != "all")
    except _UsageError as exc:
        print(f"qwcover: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"qwcover: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"qwcover: error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Command-line front end.

Two subcommands: ``run`` solves one Hamiltonian file with the selected
heuristic(s) and emits the full grouping report; ``compare`` solves one or
more files and emits a grid of group counts (one row per input, one column
per heuristic).

Every cover's groups are checked to partition the terms, with mask
operations only, and each distinct group of a file has its basis derived
from its Pauli words (which fails on any non-QWC pair, so this is the one
clique check) and its report text rendered once per ``main`` call.  Either
check fails with an :class:`~qwcover.cover.InvalidCoverError` before any
report is written.

Under ``--algorithm all``, a graph of at least :data:`FORK_DB_MIN_TERMS`
terms has its ``db`` cover solved in a forked child while this process
solves the other eight, when ``os.fork`` exists, this process may run on
two or more CPUs and it runs one thread.  The child sends back the cover
and its wall milliseconds (``--timings`` thus measures ``db`` in the
child), and the cover passes the same checks as every other, so the
report bytes are the same on either path.  A child that delivers no cover
has ``db`` solved in this process instead.  An exception here, including
``KeyboardInterrupt``, kills and reaps the child; a parent killed by
SIGKILL or SIGTERM leaves the child to finish its solve and die at its
pipe write.

``--bkt-budget`` counts the vertices ``bkt``'s greedy colorings color over
its whole cover, alone or under ``--algorithm all``; a cover that would
exceed it is reported as an error in its place.

Exit codes: 0 success, 1 usage, input-read or output error, 2 parse error, 3
budget/capacity error.  Reports are deterministic; wall-clock timings are
emitted only with ``run --timings``, keeping reruns byte-identical.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import marshal
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .cover import CoverStats, Heuristic, _check_partition, basis_of_group, compute_stats
from .graph import CapacityError, TermGraph, build_qwc_graph, iter_bits
from .pauli import Hamiltonian, ParseError, PauliAxis, parse_hamiltonian
from .removal import DEFAULT_BKT_BUDGET, BudgetExceededError
from .solvers import solve_mcc

__all__ = ["console_main", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

# `--algorithm all` solves db in a forked child on graphs of at least this
# many terms.  A fork, pipe and reap round trip takes about 1.3 ms on a
# 2-vCPU host with Python 3.11.  On such a host, shared and with its second
# CPU free only at times, a forked run on random words against an
# in-process one read -24 to +20 % at 128 terms, -35 to +6 % at 192, -4 to
# -38 % at 240 and -17 to -42 % at 360 (medians of 21-41 alternated pairs
# in each of six sessions, with db's bucket queue).  Below about 200 terms
# the host's load decides the sign: the code before the bucket queue read
# +10 and +20 % at 128 in two of those sessions, and -29 % when first
# measured.  These runs cannot tell a moved break-even from the host's
# load, so the limit stays at 128; all-mid's 240 and 360 terms fork.
FORK_DB_MIN_TERMS = 128


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


_Bases = dict[int, dict[int, PauliAxis]]  # one file's distinct group masks to their bases


@dataclass
class _HeuristicResult:
    heuristic: Heuristic
    cover: tuple[int, ...] | None = None
    stats: CoverStats | None = None
    wall_ms: float = 0.0
    error: str | None = None


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
        p.add_argument("--bkt-budget", type=_int_at_least(1), default=DEFAULT_BKT_BUDGET,
                       help="vertices bkt's colorings may color over its whole cover")

    run = sub.add_parser("run", help="solve one file and print the full report")
    add_common(run)
    run.add_argument("--timings", action="store_true",
                     help="include wall-clock milliseconds (breaks byte-identical reruns)")
    add_common(sub.add_parser("compare", help="tabulate group counts over one or more files"))
    return parser


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
        # \r, columns count characters, and a leading byte-order mark is
        # not one.
        prefix = data[:exc.start].decode("utf-8").removeprefix("\ufeff")
        prefix = prefix.replace("\r\n", "\n").replace("\r", "\n")
        line = prefix.count("\n") + 1
        column = len(prefix) - prefix.rfind("\n")
        raise ParseError(f"invalid UTF-8 byte {data[exc.start]:#04x}", line, column) from None
    return parse_hamiltonian(text)


def _solve(g: TermGraph, heuristic: Heuristic, args: argparse.Namespace) -> _HeuristicResult:
    """Solve one heuristic: a budget error, or an unchecked cover and its
    wall milliseconds."""
    result = _HeuristicResult(heuristic)
    started = time.perf_counter()
    try:
        result.cover = solve_mcc(g, heuristic, budget=args.bkt_budget)
    except BudgetExceededError as exc:
        result.error = str(exc)
        return result
    result.wall_ms = (time.perf_counter() - started) * 1000.0
    return result


def _check(h: Hamiltonian, n: int, result: _HeuristicResult, bases: _Bases) -> _HeuristicResult:
    """Check a solved cover of ``n`` terms: the partition by masks, and
    each group new to ``bases`` from its words, as ``bases`` gains it."""
    cover = result.cover
    if cover is not None:
        _check_partition(n, cover)
        result.stats = compute_stats(cover)
        for group in cover:
            if group not in bases:
                bases[group] = basis_of_group(h, group)
    return result


def _fork_db(g: TermGraph) -> tuple[int, int] | None:
    """Fork a child that solves ``db`` on ``g``, and return its pid and the
    read end of its pipe; or ``None``, where ``db`` on ``g`` would not pay
    for a child, forking is unsafe or it fails.  Forking needs two or more
    usable CPUs and one thread in this process: CPython 3.12+ warns on
    forking with more, counting OS threads as here."""
    if g.n < FORK_DB_MIN_TERMS or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threading = sys.modules.get("threading")
        threads = 1 if threading is None else threading.active_count()
    if threads > 1:
        return None
    g.complement().degree_planes  # built once, before the child copies the graph
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        _db_child(g, read, write)
    os.close(write)
    return pid, read


def _db_child(g: TermGraph, read: int, write: int) -> None:
    """The forked child: solve ``db`` on ``g``, write the marshalled
    ``(cover, wall_ms)`` to ``write`` and exit, never returning into the
    caller's frames nor flushing the stdio it inherited.  With ``read``
    closed, a write after the parent has died fails, and the child exits."""
    status = 1
    try:
        os.close(read)
        started = time.perf_counter()
        cover = solve_mcc(g, Heuristic.DB)
        data = memoryview(marshal.dumps((cover, (time.perf_counter() - started) * 1000.0)))
        while data:
            data = data[os.write(write, data):]
        status = 0
    finally:
        os._exit(status)


def _solve_beside_child(h: Hamiltonian, g: TermGraph, args: argparse.Namespace,
                        bases: _Bases, pid: int, read: int) -> list[_HeuristicResult]:
    """Every heuristic under ``--algorithm all``: the other eight solved and
    checked here while the child ``pid`` solves ``db``, then ``db``'s cover,
    read from ``read``, checked like theirs.  A child that exits without
    writing its whole cover has ``db`` solved here instead."""
    chunks = []
    try:
        results = [_check(h, g.n, _solve(g, heuristic, args), bases)
                   for heuristic in Heuristic if heuristic is not Heuristic.DB]
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
    except BaseException:
        import signal  # only on this path: its import would cost every run

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read)
        status = os.waitpid(pid, 0)[1]
    try:
        cover, wall_ms = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        status = 1
    if status:
        db = _solve(g, Heuristic.DB, args)
    else:
        db = _HeuristicResult(Heuristic.DB, cover, wall_ms=wall_ms)
    results.insert(list(Heuristic).index(Heuristic.DB), _check(h, g.n, db, bases))
    return results


def _solve_file(
    path: str, args: argparse.Namespace, heuristics: list[Heuristic]
) -> tuple[Hamiltonian, _Bases, list[_HeuristicResult]]:
    h = _load(path)
    g = build_qwc_graph(h)
    bases: _Bases = {}
    child = _fork_db(g) if len(heuristics) > 1 else None
    if child is not None:
        return h, bases, _solve_beside_child(h, g, args, bases, *child)
    return h, bases, [_check(h, g.n, _solve(g, hx, args), bases) for hx in heuristics]


def _render_run_json(path: str, h: Hamiltonian, bases: _Bases,
                     results: list[_HeuristicResult], args) -> str:
    """The run report, byte for byte as ``json.dumps(report, indent=2)``
    lays it out, written directly into one list of pieces that is joined
    once at the end; each distinct group's object is rendered once, into a
    dict local to the call.

    ``json.dumps`` renders only the free-text strings (the input path and
    error messages) and the floats; heuristic names, axis letters
    and integers need no escaping.  Every group is non-empty, since its
    cover has passed the partition check.
    """
    rendered: dict[int, str] = {}
    out = ['{\n  "input": ', json.dumps(path), ',\n  "n_qubits": ', str(h.n_qubits),
           ',\n  "total_terms": ', str(h.n_terms), ',\n  "results": [']
    for number, r in enumerate(results):
        out += (",\n    {" if number else "\n    {", '\n      "heuristic": "', r.heuristic.value, '"')
        if r.error is not None:
            out += (',\n      "error": ', json.dumps(r.error), "\n    }")
            continue
        assert r.cover is not None and r.stats is not None
        out += (',\n      "total_terms": ', str(h.n_terms),
                ',\n      "n_groups": ', str(r.stats.n_groups),
                ',\n      "max_size": ', str(r.stats.max_size),
                ',\n      "size_std": ', json.dumps(r.stats.size_std))
        if args.timings:
            out += (',\n      "wall_ms": ', json.dumps(round(r.wall_ms, 3)))
        for group in r.cover:
            if group not in rendered:
                # ``_value_`` is the plain attribute behind the slower ``.value``.
                basis = ",\n            ".join([
                    f'"{q}": "{axis._value_}"' for q, axis in bases[group].items()])
                rendered[group] = "".join([
                    '{\n          "terms": [\n            ',
                    ",\n            ".join(map(str, iter_bits(group))),
                    '\n          ],\n          "basis": ',
                    f"{{\n            {basis}\n          }}" if basis else "{}", "\n        }"])
        groups = ",\n        ".join([rendered[group] for group in r.cover])
        out += (',\n      "groups": [', f"\n        {groups}\n      " if groups else "", "]\n    }")
    out.append("\n  ]\n}\n")
    return "".join(out)


def _render_run_text(path: str, h: Hamiltonian, bases: _Bases,
                     results: list[_HeuristicResult], args) -> str:
    """The run report as text.  Each term's line is formatted once, each
    distinct group's basis and term lines are joined once, into a dict
    local to the call, and only the ``group {index} | `` prefix is written
    per occurrence."""
    # A single cover is a partition, so each term is formatted once anyway.
    term_lines = [f"  [{i}] {term}" for i, term in enumerate(h.terms)]
    rendered: dict[int, str] = {}
    lines = [f"input: {path}", f"qubits: {h.n_qubits}", f"terms: {h.n_terms}"]
    for r in results:
        if r.error is not None:
            lines.append(f"== {r.heuristic.value}: error ({r.error})")
            continue
        assert r.stats is not None and r.cover is not None
        timing = f", {r.wall_ms:.3f} ms" if args.timings else ""
        lines.append(
            f"== {r.heuristic.value}: {r.stats.n_groups} groups, "
            f"max size {r.stats.max_size}, size std {r.stats.size_std:g}{timing}"
        )
        for index, group in enumerate(r.cover):
            if group not in rendered:
                basis_text = " ".join(f"{q}:{axis}" for q, axis in bases[group].items()) or "(none)"
                rendered[group] = "\n".join(
                    [f"basis: {basis_text}"] + [term_lines[i] for i in iter_bits(group)])
            lines.append(f"group {index} | {rendered[group]}")
    return "\n".join(lines) + "\n"


def _render_compare_text(rows: list[tuple[str, int, list[_HeuristicResult]]],
                         heuristics: list[Heuristic]) -> str:
    lines = ["input total | " + " ".join([h.value for h in heuristics])]
    for path, total, results in rows:
        cells = ["err" if r.stats is None else str(r.stats.n_groups) for r in results]
        lines.append(f"{path} {total} | " + " ".join(cells))
    return "\n".join(lines) + "\n"


def _render_compare_json(rows: list[tuple[str, int, list[_HeuristicResult]]],
                         heuristics: list[Heuristic]) -> str:
    # A failed heuristic reads null.
    report = [{"input": path, "total_terms": total, "groups": {
        r.heuristic.value: None if r.stats is None else r.stats.n_groups for r in results
    }} for path, total, results in rows]
    return json.dumps({"inputs": report}, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    # UTF-8 like the input; surrogateescape restores a path's undecodable
    # bytes, also on a UTF-8 stdout whose errors handler is strict.  Any
    # other stdout that cannot encode the report is an unwritable output.
    if output is None:
        stdout = sys.stdout
        if hasattr(stdout, "buffer") and codecs.lookup(stdout.encoding).name == "utf-8":
            stdout.flush()
            stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
            return
        try:
            stdout.write(text)
        except UnicodeEncodeError as exc:
            raise _UsageError(f"cannot write report to stdout: {exc}") from None
        return
    try:
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
    explicit = args.algorithm != "all"
    heuristics = [Heuristic(args.algorithm)] if explicit else list(Heuristic)
    try:
        if args.command == "run":
            if len(args.input) != 1:
                parser.error("'run' takes exactly one --input; use 'compare' for several")
            path = args.input[0]
            h, bases, results = _solve_file(path, args, heuristics)
            render = _render_run_json if args.format == "json" else _render_run_text
            _emit(render(path, h, bases, results, args), args.output)
            return _exit_code(results, explicit)
        rows = []
        all_results: list[_HeuristicResult] = []
        for path in args.input:
            h, _, results = _solve_file(path, args, heuristics)
            rows.append((path, h.n_terms, results))
            all_results.extend(results)
        render = _render_compare_json if args.format == "json" else _render_compare_text
        _emit(render(rows, heuristics), args.output)
        return _exit_code(all_results, explicit)
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

"""Rewrite the golden reports that ``tests/test_golden.py`` compares against.

Usage, from the repository root::

    python3 tests/golden/regenerate.py            # reports only
    python3 tests/golden/regenerate.py --inputs   # inputs, then reports

Each ``NAME.ham`` in this directory has a ``NAME.json`` and a ``NAME.txt``
holding the output of ``qwcover run --input NAME.ham --algorithm all`` in
``--format json`` and ``--format text``, run from this directory so that
the embedded input path is the bare file name.  ``compare.json`` and
``compare.txt`` hold ``qwcover compare --algorithm all`` over every input,
in name order, in both formats.
Reports change only when a change redefines a tie-break on purpose; such a
change regenerates them and says so.

``--inputs`` rewrites the inputs first: the demo, seeded random words from
``tests/oracles.py`` and 8-qubit Jordan-Wigner and Bravyi-Kitaev word sets
from ``perfbench/molecular.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from qwcover import format_hamiltonian  # noqa: E402
from qwcover.cli import main  # noqa: E402

# (file stem, seed, terms, qubits) of the random inputs; words have weight <= 4.
RANDOM_INPUTS = (("random-60", 60, 60, 8), ("random-150", 150, 150, 10), ("random-300", 300, 300, 12))
MOLECULAR_INPUTS = (("jw-8", "jw"), ("bk-8", "bk"))


def write_inputs() -> None:
    import corpus
    import oracles

    shutil.copyfile(ROOT / "data" / "demo.ham", HERE / "demo.ham")
    for stem, seed, n_terms, n_qubits in RANDOM_INPUTS:
        h = oracles.random_hamiltonian(random.Random(seed), n_terms, n_qubits, max_weight=4)
        (HERE / f"{stem}.ham").write_text(format_hamiltonian(h))
    for stem, encoding in MOLECULAR_INPUTS:
        source = corpus.molecular_input(stem, random.Random(stem), 8, encoding)
        (HERE / f"{stem}.ham").write_text(source.text)


def report(args: list[str], fmt: str) -> str:
    """The report of a ``qwcover`` command run here in format ``fmt``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args + ["--format", fmt])
    if code != 0:
        raise RuntimeError(f"qwcover exited {code} on {args}")
    return buffer.getvalue()


def regenerate(argv: list[str]) -> None:
    if "--inputs" in argv:
        write_inputs()
    os.chdir(HERE)
    names = sorted(path.name for path in HERE.glob("*.ham"))
    commands = [(["run", "--input", name, "--algorithm", "all"], Path(name)) for name in names]
    inputs = [arg for name in names for arg in ("--input", name)]
    commands.append((["compare", "--algorithm", "all", *inputs], Path("compare")))
    for args, stem in commands:
        for fmt, suffix in (("json", ".json"), ("text", ".txt")):
            target = HERE / stem.with_suffix(suffix)
            target.write_text(report(args, fmt))
            print(target.name)


if __name__ == "__main__":
    regenerate(sys.argv[1:])

"""Seeded inputs and requests of the three workloads.

Every input is Hamiltonian text with distinct non-identity words and
coefficients far above the parser's pruning threshold, so the parser keeps
each line and term ``i`` of the report is line ``i`` of the input.
Molecular word sets depend only on the qubit count and encoding (every
integral is nonzero) and keep the generator's canonical term order, as a
Hamiltonian dump would; the seed draws only their coefficients.  So the
solver work on them is the same for every seed, and the seed-to-seed spread
of a workload comes from its random inputs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import molecular

Word = tuple[int, int]  # (x mask, z mask); a qubit in both masks is Y

HEURISTICS = ("gc", "lf", "sl", "dsatur", "rlf", "db", "cosine", "ramsey", "bkt")
POLY_HEURISTICS = ("gc", "lf", "sl", "dsatur", "rlf", "cosine", "ramsey")


@dataclass(frozen=True)
class Input:
    name: str
    n_qubits: int
    words: tuple[Word, ...]
    text: str


@dataclass(frozen=True)
class Request:
    input: Input
    algorithm: str  # a heuristic name or "all"

    @property
    def heuristics(self) -> tuple[str, ...]:
        return HEURISTICS if self.algorithm == "all" else (self.algorithm,)

    def argv(self, path: str) -> list[str]:
        return ["run", "--input", path, "--algorithm", self.algorithm, "--format", "json"]


def word_text(word: Word) -> str:
    x, z = word
    factors = []
    for q in range((x | z).bit_length()):
        letter = "IXZY"[(x >> q & 1) + 2 * (z >> q & 1)]
        if letter != "I":
            factors.append(f"{letter}{q}")
    return " ".join(factors)


def _make_input(name: str, n_qubits: int, terms: list[tuple[float, Word]]) -> Input:
    lines = [f"# qubits: {n_qubits}"]
    lines.extend(f"{coefficient!r} [{word_text(word)}]" for coefficient, word in terms)
    return Input(name, n_qubits, tuple(word for _, word in terms), "\n".join(lines) + "\n")


def _coefficient(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0)


def random_input(name: str, rng: random.Random, n_terms: int, n_qubits: int, max_weight: int = 4) -> Input:
    """Distinct random words of weight 1..``max_weight``."""
    seen: dict[Word, None] = {}
    while len(seen) < n_terms:
        weight = rng.randint(1, min(max_weight, n_qubits))
        x = z = 0
        for q in rng.sample(range(n_qubits), weight):
            axis = rng.randrange(3)  # X, Y, Z
            x |= (axis < 2) << q
            z |= (axis > 0) << q
        seen[(x, z)] = None
    return _make_input(name, n_qubits, [(_coefficient(rng), word) for word in seen])


def molecular_input(name: str, rng: random.Random, n_qubits: int, encoding: str) -> Input:
    return _make_input(name, n_qubits, molecular.electronic_words(n_qubits, encoding, rng))


WORKLOADS = ("all-mid", "poly-large", "many-small")


def build(workload: str, seed: int) -> list[Request]:
    """The workload's requests, in sending order, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "all-mid":
        inputs = [
            random_input("random-240", rng, 240, 12),
            molecular_input("jw-8", rng, 8, "jw"),
            molecular_input("bk-8", rng, 8, "bk"),
        ]
        return [Request(source, "all") for source in inputs]
    if workload == "poly-large":
        inputs = [
            random_input("random-600", rng, 600, 14),
            molecular_input("jw-10", rng, 10, "jw"),
        ]
        return [Request(source, h) for source in inputs for h in POLY_HEURISTICS]
    if workload == "many-small":
        requests = []
        for number in range(240):
            if number % 8 == 7:
                encoding = ("jw", "bk")[number // 8 % 2]
                source = molecular_input(f"{encoding}-4-{number}", rng, 4, encoding)
            else:
                # A fixed schedule of sizes: only the words vary with the seed.
                n_terms, n_qubits = 8 + number * 17 % 41, 4 + number % 7
                source = random_input(f"random-{number}", rng, n_terms, n_qubits)
            requests.append(Request(source, "all"))
        return requests
    raise ValueError(f"unknown workload {workload!r}")

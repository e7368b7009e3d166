"""Pauli-word sets of encoded electronic Hamiltonians, in pure Python.

A fermionic Hamiltonian over ``n`` spin orbitals (spin of orbital ``p`` is
``p % 2``) with every spin-allowed one- and two-body integral nonzero and
random is mapped to qubits by a linear encoding ``b = beta @ n (mod 2)``:
Jordan-Wigner (``beta`` = identity) or Bravyi-Kitaev (``beta`` the Fenwick
tree matrix, as in Seeley, Richard & Love 2012, arXiv:1208.5986).

Operators are dictionaries ``{(x, z): coefficient}`` of the products
``X^x Z^z`` (Z applied first), with ``x`` and ``z`` qubit bitmasks; words
are ``(x, z)`` pairs in the same bitmask form, where a qubit set in both
masks carries ``Y``.
"""

from __future__ import annotations

import random

Operator = dict[tuple[int, int], complex]

ENCODINGS = ("jw", "bk")


def encoding_rows(n: int, encoding: str) -> list[int]:
    """Row ``i`` of ``beta`` as a bitmask over orbitals: qubit ``i`` stores
    the parity of these occupation numbers."""
    if encoding == "jw":
        return [1 << i for i in range(n)]
    if encoding == "bk":
        rows = []
        for i in range(n):
            low = (i + 1) & -(i + 1)
            rows.append(((1 << (i + 1)) - 1) ^ ((1 << (i + 1 - low)) - 1))
        return rows
    raise ValueError(f"unknown encoding {encoding!r}")


def _invert_gf2(rows: list[int]) -> list[int]:
    """Inverse of a square bit matrix over GF(2), rows as bitmasks."""
    n = len(rows)
    work = [(rows[i], 1 << i) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][0] >> col & 1)
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(n):
            if r != col and work[r][0] >> col & 1:
                work[r] = (work[r][0] ^ work[col][0], work[r][1] ^ work[col][1])
    return [inverse for _, inverse in work]


def ladder_operators(n: int, encoding: str) -> tuple[list[Operator], list[Operator]]:
    """Qubit images ``(annihilators, creators)`` of the ``n`` fermionic modes.

    Flipping occupation ``j`` flips the qubits of column ``j`` of ``beta``;
    the sign ``(-1)^(n_0 + ... + n_{j-1})`` reads qubits through rows of
    ``beta^-1``.  With Majoranas ``c = X^u Z^p`` and ``d = i X^u Z^p'``,
    ``a = (c + i d) / 2`` and ``a^dagger = (c - i d) / 2``.
    """
    beta = encoding_rows(n, encoding)
    inverse = _invert_gf2(beta)
    annihilators, creators = [], []
    parity = 0
    for j in range(n):
        flip = sum(1 << i for i in range(n) if beta[i] >> j & 1)
        # n_k = parity(inverse[k] & b), so inverse rows are qubit masks.
        below, through = parity, parity ^ inverse[j]
        annihilators.append({(flip, below): 0.5, (flip, through): -0.5})
        creators.append({(flip, below): 0.5, (flip, through): 0.5})
        parity = through
    return annihilators, creators


def multiply(a: Operator, b: Operator) -> Operator:
    """Operator product ``a @ b``."""
    out: Operator = {}
    for (xa, za), ca in a.items():
        for (xb, zb), cb in b.items():
            sign = -1 if (za & xb).bit_count() & 1 else 1
            key = (xa ^ xb, za ^ zb)
            out[key] = out.get(key, 0) + sign * ca * cb
    return out


def _accumulate(total: Operator, term: Operator, scale: float) -> None:
    for key, value in term.items():
        total[key] = total.get(key, 0) + scale * value


_PHASES = (1, -1j, -1, 1j)  # (-i)^k: X Z = -i Y on every qubit carrying Y


def to_words(op: Operator) -> dict[tuple[int, int], complex]:
    """Rewrite ``X^x Z^z`` products as Pauli words with their coefficients."""
    return {key: value * _PHASES[(key[0] & key[1]).bit_count() % 4] for key, value in op.items()}


def _symmetric_draw(table: dict, key: tuple, rng: random.Random) -> float:
    if key not in table:
        table[key] = rng.uniform(-1.0, 1.0)
    return table[key]


def electronic_hamiltonian(n: int, encoding: str, rng: random.Random) -> Operator:
    """``H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q`` over
    ``n`` spin orbitals with real orbitals: ``h`` is symmetric, ``(pq|rs)``
    has the 8-fold symmetry, and every spin-allowed entry (``p, q`` of one
    spin, ``r, s`` of one spin) is an independent uniform draw in [-1, 1].
    Draws happen in a fixed loop order, so one ``rng`` state gives the same
    integrals for every encoding."""
    spin = [p % 2 for p in range(n)]
    lower, upper = ladder_operators(n, encoding)
    total: Operator = {}
    one_body: dict = {}
    for p in range(n):
        for q in range(n):
            if spin[p] == spin[q]:
                weight = _symmetric_draw(one_body, (min(p, q), max(p, q)), rng)
                _accumulate(total, multiply(upper[p], lower[q]), weight)
    creations = {(p, r): multiply(upper[p], upper[r]) for p in range(n) for r in range(n) if p != r}
    annihilations = {(s, q): multiply(lower[s], lower[q]) for s in range(n) for q in range(n) if s != q}
    two_body: dict = {}
    for (p, r), create in creations.items():
        for (s, q), annihilate in annihilations.items():
            if spin[p] != spin[q] or spin[r] != spin[s]:
                continue
            key = min((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                      (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p))
            weight = _symmetric_draw(two_body, key, rng)
            _accumulate(total, multiply(create, annihilate), 0.5 * weight)
    return total


def electronic_words(
    n: int, encoding: str, rng: random.Random, tolerance: float = 1e-9
) -> list[tuple[float, tuple[int, int]]]:
    """Non-identity words of the encoded Hamiltonian with their real
    coefficients, in ascending ``(x, z)`` order."""
    words = to_words(electronic_hamiltonian(n, encoding, rng))
    out = []
    for key in sorted(words):
        value = words[key]
        if abs(value.imag) > tolerance:
            raise ArithmeticError(f"non-Hermitian coefficient {value} on word {key}")
        if key != (0, 0) and abs(value.real) > tolerance:
            out.append((value.real, key))
    return out

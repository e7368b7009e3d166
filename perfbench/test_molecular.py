"""Dense-matrix checks of the molecular word-set generator (<= 6 qubits).

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import random

import numpy as np
import pytest

import molecular

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def operator_matrix(op: molecular.Operator, n: int) -> np.ndarray:
    """``X^x Z^z |b> = (-1)^(z.b) |b ^ x>`` with basis index ``b``."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for (x, z), coefficient in op.items():
        for b in range(1 << n):
            out[b ^ x, b] += coefficient * (-1) ** (z & b).bit_count()
    return out


def word_matrix(x: int, z: int, n: int) -> np.ndarray:
    """Kronecker product with qubit ``n - 1`` leftmost, matching ``b``."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, _PAULI["IXZY"[(x >> q & 1) + 2 * (z >> q & 1)]])
    return out


def words_matrix(terms, n: int) -> np.ndarray:
    return sum(coefficient * word_matrix(x, z, n) for coefficient, (x, z) in terms)


@pytest.mark.parametrize("encoding", molecular.ENCODINGS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ladder_images_satisfy_anticommutation(n, encoding):
    lower, upper = molecular.ladder_operators(n, encoding)
    a = [operator_matrix(op, n) for op in lower]
    a_dag = [operator_matrix(op, n) for op in upper]
    identity = np.eye(1 << n)
    for i in range(n):
        assert np.allclose(a_dag[i], a[i].conj().T)
        for j in range(n):
            assert np.allclose(a[i] @ a_dag[j] + a_dag[j] @ a[i], identity * (i == j))
            assert np.allclose(a[i] @ a[j] + a[j] @ a[i], 0)


@pytest.mark.parametrize("encoding", molecular.ENCODINGS)
def test_word_rewrite_keeps_the_operator(encoding):
    n = 4
    op = molecular.electronic_hamiltonian(n, encoding, random.Random(3))
    terms = [(c, key) for key, c in molecular.to_words(op).items()]
    assert np.allclose(words_matrix(terms, n), operator_matrix(op, n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_jw_and_bk_hamiltonians_have_equal_spectra(n):
    spectra = []
    for encoding in molecular.ENCODINGS:
        terms = molecular.electronic_words(n, encoding, random.Random(n))
        matrix = words_matrix(terms, n)
        assert np.allclose(matrix, matrix.conj().T)
        spectra.append(np.linalg.eigvalsh(matrix))
    # The identity word is dropped from both, so the spectra agree exactly.
    assert np.allclose(spectra[0], spectra[1])
    assert not np.allclose(spectra[0], spectra[0][0])


@pytest.mark.parametrize("encoding", molecular.ENCODINGS)
def test_hamiltonian_conserves_particle_number(encoding):
    n = 4
    lower, upper = molecular.ladder_operators(n, encoding)
    number = sum(operator_matrix(upper[p], n) @ operator_matrix(lower[p], n) for p in range(n))
    h = words_matrix(molecular.electronic_words(n, encoding, random.Random(5)), n)
    assert np.allclose(h @ number, number @ h)


@pytest.mark.parametrize(("n", "terms"), [(4, 26), (8, 360), (10, 875)])
def test_word_counts_are_fixed_by_the_qubit_count(n, terms):
    for encoding in molecular.ENCODINGS:
        for seed in (1, 2):
            assert len(molecular.electronic_words(n, encoding, random.Random(seed))) == terms

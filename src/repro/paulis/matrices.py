"""Dense-matrix realisations of Pauli strings and sums.

Only used by tests and the exact-diagonalization side of the simulator;
everything algorithmic works on the symplectic representation.  The qubit
ordering matches the simulator: basis state index bit ``i`` is qubit ``i``,
so qubit 0 is the least-significant bit of the computational basis label.
"""

from __future__ import annotations

import numpy as np

from repro.paulis.strings import PauliString
from repro.paulis.terms import PauliSum

#: The four single-qubit operators as dense matrices.
MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string_matrix(string: PauliString) -> np.ndarray:
    """Dense ``2^N x 2^N`` matrix of a Pauli string.

    Built as ``kron(op[N-1], ..., op[0])`` so that qubit 0 is the
    least-significant index bit.
    """
    matrix = np.array([[1.0 + 0j]])
    for qubit in range(string.num_qubits):
        matrix = np.kron(MATRICES[string.operator(qubit)], matrix)
    return matrix


def pauli_sum_matrix(operator: PauliSum) -> np.ndarray:
    """Dense matrix of a :class:`PauliSum`."""
    dimension = 2 ** operator.num_qubits
    matrix = np.zeros((dimension, dimension), dtype=complex)
    for string, coefficient in operator.items():
        matrix += coefficient * pauli_string_matrix(string)
    return matrix

"""GF(2) linear algebra over Pauli strings.

Every phase-free Pauli string on ``N`` qubits is a vector in ``GF(2)^{2N}``
(the ``symplectic_key`` of :class:`~repro.paulis.strings.PauliString`), and
string multiplication is vector addition.  Consequently, a set of strings is
*algebraically independent* in the paper's sense (no subset multiplies to a
scalar multiple of identity, Eq. 5) exactly when their key vectors are
linearly independent over GF(2).  This module provides that rank machinery;
it backs solution verification in :mod:`repro.core.verify` and the descent's
fail-closed check on every SAT model in :mod:`repro.core.descent`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.paulis.strings import PauliString


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of integer bitmask row-vectors over GF(2)."""
    basis: list[int] = []
    for vector in vectors:
        for pivot in basis:
            vector = min(vector, vector ^ pivot)
        if vector:
            basis.append(vector)
            basis.sort(reverse=True)
    return len(basis)


def gf2_dependent_subset(vectors: Sequence[int]) -> list[int] | None:
    """Indices of a subset XOR-ing to zero, or ``None`` if independent.

    Performs Gaussian elimination while tracking which input rows were
    combined into each reduced row; the first row that reduces to zero
    exposes a dependency certificate.
    """
    basis: list[tuple[int, int]] = []  # (reduced vector, membership mask)
    for index, vector in enumerate(vectors):
        membership = 1 << index
        for reduced, reduced_membership in basis:
            if vector ^ reduced < vector:
                vector ^= reduced
                membership ^= reduced_membership
        if vector == 0:
            return [i for i in range(index + 1) if (membership >> i) & 1]
        basis.append((vector, membership))
        basis.sort(reverse=True)
    return None


def gf2_nullspace(vectors: Sequence[int], width: int) -> list[int]:
    """Basis of the right nullspace of the GF(2) matrix whose rows are
    ``vectors`` (each an integer bitmask of ``width`` columns).

    Returns bitmask basis vectors ``v`` with ``popcount(row & v)`` even for
    every row.
    """
    mask = (1 << width) - 1
    pivot_rows: list[tuple[int, int]] = []  # (pivot column, reduced row)
    for row in vectors:
        row &= mask
        for column, pivot_row in pivot_rows:
            if (row >> column) & 1:
                row ^= pivot_row
        if row:
            pivot_rows.append((row.bit_length() - 1, row))
    # Gauss-Jordan: clear every pivot column from the other reduced rows.
    for i in range(len(pivot_rows)):
        column_i, row_i = pivot_rows[i]
        for j in range(len(pivot_rows)):
            if i == j:
                continue
            column_j, row_j = pivot_rows[j]
            if (row_j >> column_i) & 1:
                pivot_rows[j] = (column_j, row_j ^ row_i)
    pivot_columns = {column for column, _ in pivot_rows}
    basis = []
    for free in (c for c in range(width) if c not in pivot_columns):
        vector = 1 << free
        for column, row in pivot_rows:
            if (row >> free) & 1:
                vector |= 1 << column
        basis.append(vector)
    return basis


def strings_rank(strings: Iterable[PauliString]) -> int:
    """GF(2) rank of the symplectic key vectors of ``strings``."""
    return gf2_rank(string.symplectic_key() for string in strings)


def are_algebraically_independent(strings: Sequence[PauliString]) -> bool:
    """True when no non-empty subset of ``strings`` multiplies to identity.

    Equivalent to the paper's power-set condition (Eq. 5) but checked in
    ``O(N^3)`` via GF(2) rank rather than ``4^N`` subset enumeration.
    """
    strings = list(strings)
    return strings_rank(strings) == len(strings)


def dependent_subset(strings: Sequence[PauliString]) -> list[int] | None:
    """Indices of strings whose product is (a phase times) identity, else ``None``."""
    return gf2_dependent_subset([string.symplectic_key() for string in strings])


def pairwise_anticommuting(strings: Sequence[PauliString]) -> bool:
    """True when every pair of distinct strings anticommutes (Eq. 3)."""
    for i, left in enumerate(strings):
        for right in strings[i + 1:]:
            if not left.anticommutes_with(right):
                return False
    return True

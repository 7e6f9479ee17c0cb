"""Unit tests for single-qubit Pauli operator tables."""

import numpy as np
import pytest

from repro.paulis.matrices import MATRICES
from repro.paulis.operators import (
    LABELS,
    PRODUCTS,
    label_from_bits,
    operators_anticommute,
    xz_bits,
)


class TestBitEncoding:
    def test_round_trip_all_labels(self):
        for label in "IXYZ":
            assert label_from_bits(*xz_bits(label)) == label

    def test_identity_is_zero_bits(self):
        assert xz_bits("I") == (0, 0)

    def test_y_has_both_bits(self):
        assert xz_bits("Y") == (1, 1)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            xz_bits("Q")

    def test_labels_tuple_is_consistent_with_packing(self):
        for label in "IXYZ":
            x_bit, z_bit = xz_bits(label)
            assert LABELS[x_bit + 2 * z_bit] == label


class TestProductTable:
    def test_product_table_matches_matrices(self):
        for (a, b), (phase, c) in PRODUCTS.items():
            lhs = MATRICES[a] @ MATRICES[b]
            rhs = phase * MATRICES[c]
            assert np.allclose(lhs, rhs), (a, b)

    def test_every_pair_covered(self):
        assert len(PRODUCTS) == 16

    def test_products_closed_over_labels(self):
        for _, result in PRODUCTS.values():
            assert result in "IXYZ"


class TestAnticommutation:
    def test_identity_commutes_with_everything(self):
        for label in "IXYZ":
            assert not operators_anticommute("I", label)
            assert not operators_anticommute(label, "I")

    def test_equal_operators_commute(self):
        for label in "XYZ":
            assert not operators_anticommute(label, label)

    def test_distinct_nonidentity_anticommute(self):
        for a in "XYZ":
            for b in "XYZ":
                if a != b:
                    assert operators_anticommute(a, b)

    def test_matches_matrix_anticommutator(self):
        for a in "IXYZ":
            for b in "IXYZ":
                anticommutator = MATRICES[a] @ MATRICES[b] + MATRICES[b] @ MATRICES[a]
                expected = operators_anticommute(a, b)
                assert np.allclose(anticommutator, 0) == expected

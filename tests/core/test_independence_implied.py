"""Pairwise anticommutation implies algebraic independence.

The descent never emits the power-set family of Section 3.4, on the
strength of this theorem: ``2N`` pairwise-anticommuting Pauli strings are
GF(2)-independent, so no product of a non-empty subset is a multiple of
identity.  These tests check it exhaustively for small ``N``, on random
Clifford images of Jordan-Wigner for larger ``N``, and at the CNF level:
adding the family to the anticommutativity clauses removes no model.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FermihedralConfig, FermihedralEncoder, SolverBudget, descend
from repro.encodings import jordan_wigner
from repro.encodings.random_encoding import random_clifford_gates
from repro.encodings.serialization import encoding_to_dict
from repro.paulis import (
    PauliString,
    are_algebraically_independent,
    pairwise_anticommuting,
)
from repro.paulis.clifford import conjugate_sequence
from repro.sat import enumerate_models


def _anticommuting_sets(num_qubits: int, size: int):
    """Every unordered set of ``size`` pairwise-anticommuting non-identity
    strings on ``num_qubits`` qubits (cliques of the anticommutation graph)."""
    strings = [
        PauliString(num_qubits, x_mask, z_mask)
        for x_mask in range(1 << num_qubits)
        for z_mask in range(1 << num_qubits)
        if x_mask or z_mask
    ]

    def extend(chosen, candidates):
        if len(chosen) == size:
            yield chosen
            return
        for position, string in enumerate(candidates):
            yield from extend(
                chosen + [string],
                [other for other in candidates[position + 1:]
                 if string.anticommutes_with(other)],
            )

    yield from extend([], strings)


class TestExhaustive:
    def test_every_anticommuting_set_is_independent(self):
        expected_counts = {1: 3, 2: 30, 3: 2016}
        for num_modes, expected in expected_counts.items():
            count = 0
            for strings in _anticommuting_sets(num_modes, 2 * num_modes):
                assert are_algebraically_independent(strings), strings
                count += 1
            assert count == expected, num_modes


class TestCliffordImages:
    @settings(max_examples=40, deadline=None)
    @given(
        num_modes=st.integers(4, 6),
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(0, 60),
    )
    def test_random_clifford_image_of_jordan_wigner(self, num_modes, seed, depth):
        gates = random_clifford_gates(num_modes, depth, random.Random(seed))
        strings = [
            conjugate_sequence(string, gates)[0]
            for string in jordan_wigner(num_modes).strings
        ]
        assert pairwise_anticommuting(strings)
        assert are_algebraically_independent(strings)


class TestFamilyRemovesNoModel:
    def test_two_mode_model_sets_agree(self):
        model_sets = {}
        for with_family in (False, True):
            encoder = FermihedralEncoder(2)
            encoder.add_anticommutativity()
            if with_family:
                encoder.add_algebraic_independence()
            projection = encoder.all_string_variables()
            model_sets[with_family] = {
                tuple(model[variable] for variable in projection)
                for model in enumerate_models(encoder.formula, projection,
                                              limit=1000)
            }
        assert len(model_sets[False]) == 720
        assert model_sets[True] == model_sets[False]


class TestConfigSwitchIsInert:
    """``algebraic_independence`` no longer changes the instance, so both
    settings return the same bytes (their cache keys stay distinct; see
    ``tests/store/test_fingerprint.py``)."""

    def test_same_encoding_either_way(self):
        results = {}
        for algebraic in (True, False):
            config = FermihedralConfig(
                algebraic_independence=algebraic,
                budget=SolverBudget(time_budget_s=60),
            )
            result = descend(3, config)
            results[algebraic] = (
                json.dumps(encoding_to_dict(result.encoding), sort_keys=True),
                result.weight,
                result.proved_optimal,
            )
        assert results[True] == results[False]
        assert results[True][1:] == (11, True)

"""Tests for the SAT constraint encoder (Section 3)."""

import pytest

from repro.core import OPERATOR_BITS, FermihedralEncoder
from repro.core.verify import verify_encoding
from repro.encodings import bravyi_kitaev, jordan_wigner
from repro.paulis import pairwise_anticommuting, are_algebraically_independent
from repro.sat import solve_formula


def _solve_encoder(encoder):
    result = solve_formula(encoder.formula)
    assert result.is_sat
    return encoder.decode(result.model)


class TestVariableGeometry:
    def test_variable_count(self):
        encoder = FermihedralEncoder(3)
        # 2 bits per (string, qubit): 2 * (2N * N)
        assert encoder.formula.num_variables == 2 * 6 * 3

    def test_string_variables_bit_sequence_order(self):
        encoder = FermihedralEncoder(2)
        variables = encoder.string_variables(0)
        assert len(variables) == 4
        assert variables[0] == encoder.bit1[0][0]
        assert variables[1] == encoder.bit2[0][0]

    def test_rejects_nonpositive_modes(self):
        with pytest.raises(ValueError):
            FermihedralEncoder(0)


class TestRoundTrip:
    def test_encoding_assignment_decodes_back(self):
        """encode(BK) -> model -> decode == BK (bit conventions consistent)."""
        for num_modes in (1, 2, 3, 4):
            baseline = bravyi_kitaev(num_modes)
            encoder = FermihedralEncoder(num_modes)
            hints = encoder.encoding_assignment(baseline)
            decoded = encoder.decode(hints)
            assert [s.label() for s in decoded.strings] == [
                s.label() for s in baseline.strings
            ]

    def test_operator_bits_match_paper(self):
        assert OPERATOR_BITS == {"I": (0, 0), "X": (0, 1), "Y": (1, 0), "Z": (1, 1)}

    def test_mode_mismatch_rejected(self):
        encoder = FermihedralEncoder(2)
        with pytest.raises(ValueError):
            encoder.encoding_assignment(jordan_wigner(3))


class TestConstraints:
    def test_anticommutativity_constraint_produces_anticommuting_family(self):
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        decoded = _solve_encoder(encoder)
        assert pairwise_anticommuting(decoded.strings)

    def test_baseline_satisfies_anticommutativity(self):
        """Unit clauses pinning the JW assignment must stay SAT."""
        encoder = FermihedralEncoder(3)
        encoder.add_anticommutativity()
        for variable, value in encoder.encoding_assignment(jordan_wigner(3)).items():
            encoder.formula.add_unit(variable if value else -variable)
        assert solve_formula(encoder.formula).is_sat

    def test_algebraic_independence_constraint(self):
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        encoder.add_algebraic_independence()
        decoded = _solve_encoder(encoder)
        assert are_algebraically_independent(decoded.strings)

    def test_dependent_family_violates_algebraic_clauses(self):
        """Pinning a dependent family (X,Y,Z on one qubit include XYZ ∝ I ...
        use two modes with a crafted dependence) must be UNSAT."""
        encoder = FermihedralEncoder(1)
        encoder.add_algebraic_independence()
        # strings X and X: subset {0,1} multiplies to I
        for string_index in (0, 1):
            for qubit in (0,):
                bit1, bit2 = OPERATOR_BITS["X"]
                v1 = encoder.bit1[string_index][qubit]
                v2 = encoder.bit2[string_index][qubit]
                encoder.formula.add_unit(v1 if bit1 else -v1)
                encoder.formula.add_unit(v2 if bit2 else -v2)
        assert solve_formula(encoder.formula).is_unsat

    def test_vacuum_constraint_forces_xy_witness(self):
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        encoder.add_vacuum_preservation()
        decoded = _solve_encoder(encoder)
        for mode in (0, 1):
            even = decoded.strings[2 * mode]
            odd = decoded.strings[2 * mode + 1]
            assert any(
                even.operator(k) == "X" and odd.operator(k) == "Y"
                for k in range(2)
            )

    def test_all_constraints_give_valid_encoding(self):
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        encoder.add_algebraic_independence()
        encoder.add_vacuum_preservation()
        decoded = _solve_encoder(encoder)
        report = verify_encoding(decoded)
        assert report.valid


class TestWeights:
    def test_majorana_indicator_count(self):
        encoder = FermihedralEncoder(3)
        assert len(encoder.majorana_weight_indicators()) == 6 * 3

    def test_weight_bound_enforced(self):
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        encoder.add_algebraic_independence()
        indicators = encoder.majorana_weight_indicators()
        encoder.formula.add_unit(encoder.weight_ladder(indicators, 6)[6])
        decoded = _solve_encoder(encoder)
        assert decoded.total_majorana_weight <= 6

    def test_weight_below_optimum_unsat(self):
        """N=2 optimum is 6 (JW); asking for 5 must be UNSAT."""
        encoder = FermihedralEncoder(2)
        encoder.add_anticommutativity()
        encoder.add_algebraic_independence()
        indicators = encoder.majorana_weight_indicators()
        encoder.formula.add_unit(encoder.weight_ladder(indicators, 5)[5])
        assert solve_formula(encoder.formula).is_unsat

    def test_hamiltonian_indicators(self):
        from repro.fermion import hubbard_chain

        hamiltonian = hubbard_chain(2, periodic=False)
        encoder = FermihedralEncoder(4)
        indicators = encoder.hamiltonian_weight_indicators(hamiltonian)
        assert len(indicators) == len(hamiltonian.monomials) * 4

    def test_hamiltonian_mode_mismatch_rejected(self):
        from repro.fermion import hubbard_chain

        encoder = FermihedralEncoder(3)
        with pytest.raises(ValueError):
            encoder.hamiltonian_weight_indicators(hubbard_chain(2))

"""Exhaustive validation of the SAT constraint encoder.

For one mode, the string-variable space is tiny (two strings x one qubit x
two bits = 4 variables, 16 assignments), so the encoder can be checked
against ground truth *exactly*: pin every possible assignment with unit
clauses and compare satisfiability with a direct evaluation of the
constraint on the decoded strings.  For two modes (65536 assignments) a
random sample plus all valid encodings is checked.
"""

import itertools
import random

import pytest

from repro.core import FermihedralEncoder, measured_weight
from repro.core.encoder import OPERATOR_BITS
from repro.encodings import MajoranaEncoding
from repro.fermion import tv_chain
from repro.paulis import (
    PauliString,
    are_algebraically_independent,
    pairwise_anticommuting,
)
from repro.sat import CdclSolver, solve_formula

_OPERATORS = "IXYZ"


def _strings_from_assignment(num_modes: int, labels: tuple[str, ...]):
    return [PauliString.from_label(label) for label in labels]


def _pin_assignment(encoder: FermihedralEncoder, strings) -> None:
    encoding = MajoranaEncoding(strings, validate=False)
    for variable, value in encoder.encoding_assignment(encoding).items():
        encoder.formula.add_unit(variable if value else -variable)


def _ground_truth_vacuum_witness(strings, num_modes: int) -> bool:
    """The paper's Section 3.5 condition: each pair has an X/Y column."""
    for mode in range(num_modes):
        even, odd = strings[2 * mode], strings[2 * mode + 1]
        if not any(
            even.operator(k) == "X" and odd.operator(k) == "Y"
            for k in range(num_modes)
        ):
            return False
    return True


def _objective(encoding, hamiltonian, qubit_weights) -> int:
    """The objective the weight indicators count, term by term.

    ``measured_weight`` merges equal images of distinct monomials.  That
    happens only when the strings are dependent, never on a valid
    encoding, so there the two agree.
    """
    if hamiltonian is None:
        return measured_weight(encoding, None, qubit_weights)
    return sum(
        encoding.monomial_image(monomial)[0].weight
        for monomial in hamiltonian.monomials
    )


def _all_one_mode_assignments():
    for left in _OPERATORS:
        for right in _OPERATORS:
            yield (left, right)


class TestOneModeExhaustive:
    def test_anticommutativity_exact(self):
        for labels in _all_one_mode_assignments():
            encoder = FermihedralEncoder(1)
            encoder.add_anticommutativity()
            strings = _strings_from_assignment(1, labels)
            _pin_assignment(encoder, strings)
            expected = pairwise_anticommuting(strings) and all(
                not s.is_identity for s in strings
            )
            # identity strings commute with everything, so the direct
            # anticommuting check already excludes them for pairs
            expected = strings[0].anticommutes_with(strings[1])
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_algebraic_independence_exact(self):
        for labels in _all_one_mode_assignments():
            encoder = FermihedralEncoder(1)
            encoder.add_algebraic_independence()
            strings = _strings_from_assignment(1, labels)
            _pin_assignment(encoder, strings)
            expected = are_algebraically_independent(strings)
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_vacuum_witness_exact(self):
        for labels in _all_one_mode_assignments():
            encoder = FermihedralEncoder(1)
            encoder.add_vacuum_preservation()
            strings = _strings_from_assignment(1, labels)
            _pin_assignment(encoder, strings)
            expected = _ground_truth_vacuum_witness(strings, 1)
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_all_constraints_leave_exactly_xy(self):
        """With every paper constraint, the only valid 1-mode encoding is
        (X, Y)."""
        valid = []
        for labels in _all_one_mode_assignments():
            encoder = FermihedralEncoder(1)
            encoder.add_anticommutativity()
            encoder.add_algebraic_independence()
            encoder.add_vacuum_preservation()
            _pin_assignment(encoder, _strings_from_assignment(1, labels))
            if solve_formula(encoder.formula).is_sat:
                valid.append(labels)
        assert valid == [("X", "Y")]


class TestTwoModeSampled:
    @pytest.fixture(scope="class")
    def assignments(self):
        rng = random.Random(17)
        sampled = {
            tuple(rng.choice(_OPERATORS) + rng.choice(_OPERATORS) for _ in range(4))
            for _ in range(120)
        }
        # make sure known-valid encodings are in the pool
        sampled.add(("IX", "IY", "XZ", "YZ"))  # JW
        sampled.add(("XI", "YI", "ZX", "ZY"))
        sampled.add(("IX", "IX", "XZ", "YZ"))  # duplicate: invalid
        return sorted(sampled)

    def test_anticommutativity_sampled(self, assignments):
        for labels in assignments:
            encoder = FermihedralEncoder(2)
            encoder.add_anticommutativity()
            strings = _strings_from_assignment(2, labels)
            _pin_assignment(encoder, strings)
            expected = pairwise_anticommuting(strings) and all(
                not left == right
                for i, left in enumerate(strings)
                for right in strings[i + 1:]
            )
            expected = all(
                strings[i].anticommutes_with(strings[j])
                for i in range(4)
                for j in range(i + 1, 4)
            )
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_algebraic_independence_sampled(self, assignments):
        for labels in assignments:
            encoder = FermihedralEncoder(2)
            encoder.add_algebraic_independence()
            strings = _strings_from_assignment(2, labels)
            _pin_assignment(encoder, strings)
            expected = are_algebraically_independent(strings)
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_vacuum_witness_sampled(self, assignments):
        for labels in assignments:
            encoder = FermihedralEncoder(2)
            encoder.add_vacuum_preservation()
            strings = _strings_from_assignment(2, labels)
            _pin_assignment(encoder, strings)
            expected = _ground_truth_vacuum_witness(strings, 2)
            assert solve_formula(encoder.formula).is_sat == expected, labels

    def test_weight_bound_sampled(self, assignments):
        """A fixed bound, the ladder's selector added as a unit clause,
        admits a pinned assignment exactly when its weight fits."""
        for labels in assignments[:40]:
            strings = _strings_from_assignment(2, labels)
            total = sum(s.weight for s in strings)
            for bound in (total - 1, total, total + 1):
                if bound < 0:
                    continue
                encoder = FermihedralEncoder(2)
                indicators = encoder.majorana_weight_indicators()
                selectors = encoder.weight_ladder(indicators, bound)
                encoder.formula.add_unit(selectors[bound])
                _pin_assignment(encoder, strings)
                expected = total <= bound
                assert solve_formula(encoder.formula).is_sat == expected, (
                    labels, bound,
                )

    @pytest.mark.parametrize("objective", ["uniform", "weighted", "hamiltonian"])
    def test_ladder_matches_objective(self, assignments, objective):
        """Assuming ``selectors[b]`` on a pinned assignment is SAT exactly
        when its objective is at most ``b``."""
        qubit_weights = (1, 2) if objective == "weighted" else None
        hamiltonian = tv_chain(2) if objective == "hamiltonian" else None
        for labels in assignments:
            strings = _strings_from_assignment(2, labels)
            encoding = MajoranaEncoding(strings, validate=False)
            total = _objective(encoding, hamiltonian, qubit_weights)
            encoder = FermihedralEncoder(2)
            if hamiltonian is None:
                indicators = encoder.majorana_weight_indicators()
            else:
                indicators = encoder.hamiltonian_weight_indicators(hamiltonian)
            selectors = encoder.weight_ladder(indicators, total + 1, qubit_weights)
            _pin_assignment(encoder, strings)
            solver = CdclSolver(encoder.formula)
            for bound in range(max(total - 1, 0), total + 2):
                result = solver.solve(assumptions=[selectors[bound]])
                assert result.is_sat == (total <= bound), (labels, bound)

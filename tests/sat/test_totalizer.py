"""Totalizer cardinality: fixed-bound semantics, the ladder selector
contract, and the encoder's weight ladder built on it."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CdclSolver, CnfFormula, add_totalizer_ladder, dpll_solve


class TestAtMostK:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 127))
    def test_agrees_with_popcount(self, n, k, assignment_bits):
        bits = [(assignment_bits >> i) & 1 == 1 for i in range(n)]
        formula = CnfFormula()
        inputs = formula.new_variables(n)
        selectors = add_totalizer_ladder(formula, inputs, k)
        formula.add_unit(selectors[k])
        for variable, bit in zip(inputs, bits):
            formula.add_unit(variable if bit else -variable)
        assert dpll_solve(formula).is_sat == (sum(bits) <= k)

    def test_model_counts_match_sequential(self):
        """A fixed bound admits exactly the projections onto the inputs
        that the sequential counter did: C(n, 0) + ... + C(n, k)."""
        from math import comb

        for n, k in ((3, 1), (4, 2), (5, 3)):
            satisfiable = 0
            for bits in itertools.product([False, True], repeat=n):
                formula = CnfFormula()
                inputs = formula.new_variables(n)
                formula.add_unit(add_totalizer_ladder(formula, inputs, k)[k])
                for variable, bit in zip(inputs, bits):
                    formula.add_unit(variable if bit else -variable)
                if dpll_solve(formula).is_sat:
                    satisfiable += 1
            assert satisfiable == sum(comb(n, i) for i in range(k + 1))

    def test_bound_above_length_is_noop(self):
        """Bounds of at least the literal count all select one literal
        that the ladder already asserts, so fixing one adds nothing."""
        formula = CnfFormula()
        inputs = formula.new_variables(3)
        selectors = add_totalizer_ladder(formula, inputs, 5)
        assert selectors[3:] == [selectors[3]] * 3
        assert [selectors[3]] in [list(c) for c in formula.clauses()]

    def test_bound_zero_forces_all_false(self):
        formula = CnfFormula()
        inputs = formula.new_variables(3)
        formula.add_unit(add_totalizer_ladder(formula, inputs, 0)[0])
        result = dpll_solve(formula)
        assert result.is_sat
        assert not any(result.model[v] for v in inputs)

    def test_negative_bound_rejected(self):
        formula = CnfFormula()
        inputs = formula.new_variables(2)
        with pytest.raises(ValueError):
            add_totalizer_ladder(formula, inputs, -1)


class TestLadder:
    def test_ladder_bounds_match_bruteforce(self):
        rng = random.Random(7)
        for _ in range(40):
            count = rng.randint(1, 6)
            formula = CnfFormula()
            literals = formula.new_variables(count)
            max_bound = rng.randint(0, count + 2)
            selectors = add_totalizer_ladder(formula, literals, max_bound)
            assert len(selectors) == max_bound + 1
            forced = [v for v in literals if rng.random() < 0.5]
            solver = CdclSolver(formula)
            for bound in range(max_bound + 1):
                result = solver.solve(assumptions=[selectors[bound]] + forced)
                assert result.is_sat == (len(forced) <= bound)
                if result.is_sat:
                    assert sum(result.model[v] for v in literals) <= bound

    def test_vacuous_bounds_are_tautological(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        selectors = add_totalizer_ladder(formula, [a, b], 4)
        solver = CdclSolver(formula)
        result = solver.solve(assumptions=[selectors[4], a, b])
        assert result.is_sat

    def test_empty_literals(self):
        formula = CnfFormula()
        selectors = add_totalizer_ladder(formula, [], 2)
        assert len(selectors) == 3
        solver = CdclSolver(formula)
        assert solver.solve(assumptions=[selectors[0]]).is_sat

    def test_negative_bound_rejected(self):
        formula = CnfFormula()
        a = formula.new_variable()
        with pytest.raises(ValueError):
            add_totalizer_ladder(formula, [a], -1)


class TestEncoderChooser:
    def test_weight_ladder_encodings_agree(self):
        """The encoder's ladder gives the same statuses whether a bound is
        assumed on one instance or added as a unit to a fresh one."""
        from repro.core.encoder import FermihedralEncoder

        def build():
            encoder = FermihedralEncoder(2)
            encoder.add_anticommutativity()
            indicators = encoder.majorana_weight_indicators()
            return encoder, encoder.weight_ladder(indicators, 8)

        encoder, selectors = build()
        solver = CdclSolver(encoder.formula)
        assumed = [
            solver.solve(assumptions=[selectors[b]]).status for b in range(8, -1, -1)
        ]
        fixed = []
        for bound in range(8, -1, -1):
            encoder, selectors = build()
            encoder.formula.add_unit(selectors[bound])
            fixed.append(CdclSolver(encoder.formula).solve().status)
        assert assumed == fixed
        assert "SAT" in assumed and "UNSAT" in assumed

"""Tests for fixed-bound cardinality constraints.

A fixed bound ``sum(literals) <= k`` is the totalizer ladder's selector
``k`` added as a unit clause; a weighted bound is the encoder's
``weight_ladder`` with per-qubit weights.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FermihedralEncoder
from repro.sat import CnfFormula, add_totalizer_ladder, dpll_solve


def _add_at_most_k(formula: CnfFormula, literals, bound: int) -> None:
    formula.add_unit(add_totalizer_ladder(formula, literals, bound)[bound])


def _count_models(num_inputs: int, bound: int) -> int:
    """Count assignments of the inputs satisfying the at-most-k constraint."""
    satisfiable = 0
    for bits in itertools.product([False, True], repeat=num_inputs):
        formula = CnfFormula()
        inputs = formula.new_variables(num_inputs)
        _add_at_most_k(formula, inputs, bound)
        for variable, bit in zip(inputs, bits):
            formula.add_unit(variable if bit else -variable)
        if dpll_solve(formula).is_sat:
            satisfiable += 1
            assert sum(bits) <= bound
    return satisfiable


def _binomial_prefix(n: int, k: int) -> int:
    from math import comb

    return sum(comb(n, i) for i in range(0, min(k, n) + 1))


class TestAtMostK:
    @pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (4, 2), (5, 3), (5, 0), (4, 4)])
    def test_exactly_the_right_models(self, n, k):
        assert _count_models(n, k) == _binomial_prefix(n, k)

    def test_bound_above_length_is_noop(self):
        """A bound of at least the literal count selects the shared
        always-true literal, so it admits every assignment."""
        for bits in itertools.product([False, True], repeat=3):
            formula = CnfFormula()
            inputs = formula.new_variables(3)
            selectors = add_totalizer_ladder(formula, inputs, 5)
            assert selectors[3] == selectors[4] == selectors[5]
            formula.add_unit(selectors[5])
            for variable, bit in zip(inputs, bits):
                formula.add_unit(variable if bit else -variable)
            assert dpll_solve(formula).is_sat

    def test_bound_zero_forces_all_false(self):
        formula = CnfFormula()
        inputs = formula.new_variables(3)
        _add_at_most_k(formula, inputs, 0)
        result = dpll_solve(formula)
        assert result.is_sat
        assert not any(result.model[v] for v in inputs)

    def test_negative_bound_rejected(self):
        formula = CnfFormula()
        inputs = formula.new_variables(2)
        with pytest.raises(ValueError):
            add_totalizer_ladder(formula, inputs, -1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 63))
    def test_agrees_with_popcount(self, n, k, assignment_bits):
        bits = [(assignment_bits >> i) & 1 == 1 for i in range(n)]
        formula = CnfFormula()
        inputs = formula.new_variables(n)
        _add_at_most_k(formula, inputs, k)
        for variable, bit in zip(inputs, bits):
            formula.add_unit(variable if bit else -variable)
        assert dpll_solve(formula).is_sat == (sum(bits) <= k)


class TestWeighted:
    def test_weighted_sum_enforced(self):
        weights = (2, 1, 3)
        for bits in itertools.product([False, True], repeat=3):
            encoder = FermihedralEncoder(3)
            inputs = encoder.formula.new_variables(3)
            selectors = encoder.weight_ladder(inputs, 3, weights)
            encoder.formula.add_unit(selectors[3])
            for variable, bit in zip(inputs, bits):
                encoder.formula.add_unit(variable if bit else -variable)
            total = sum(w for w, bit in zip(weights, bits) if bit)
            assert dpll_solve(encoder.formula).is_sat == (total <= 3)

    def test_length_mismatch_rejected(self):
        encoder = FermihedralEncoder(2)
        inputs = encoder.formula.new_variables(2)
        with pytest.raises(ValueError):
            encoder.weight_ladder(inputs, 1, (1,))

    def test_negative_weight_rejected(self):
        encoder = FermihedralEncoder(1)
        inputs = encoder.formula.new_variables(1)
        with pytest.raises(ValueError):
            encoder.weight_ladder(inputs, 1, (-1,))

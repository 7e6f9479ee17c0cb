"""Adversarial and structural tests for the CDCL solver.

Targets the machinery the basic tests miss: XOR chains (the dominant
structure in Fermihedral instances), restart/reduction paths, model
validity on Tseitin-heavy formulas, and budget semantics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    CnfFormula,
    add_totalizer_ladder,
    dpll_solve,
    encode_xor_many,
    evaluate_formula,
    solve_formula,
)


def _xor_chain_formula(num_vars: int, parity: int, seed: int) -> CnfFormula:
    """Random XOR system: k constraints over subsets, parities fixed."""
    rng = random.Random(seed)
    formula = CnfFormula()
    variables = formula.new_variables(num_vars)
    for _ in range(num_vars):
        subset = rng.sample(variables, rng.randint(2, num_vars))
        gate = encode_xor_many(formula, subset)
        formula.add_unit(gate if rng.random() < 0.5 else -gate)
    return formula


class TestXorStructures:
    @pytest.mark.parametrize("seed", range(10))
    def test_xor_systems_agree_with_dpll(self, seed):
        formula = _xor_chain_formula(6, parity=1, seed=seed)
        cdcl = solve_formula(formula)
        reference = dpll_solve(formula)
        assert cdcl.status == reference.status
        if cdcl.is_sat:
            assert evaluate_formula(formula, cdcl.model)

    def test_inconsistent_xor_pair_unsat(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        gate1 = encode_xor_many(formula, [a, b])
        gate2 = encode_xor_many(formula, [a, b])
        formula.add_unit(gate1)
        formula.add_unit(-gate2)
        assert solve_formula(formula).is_unsat

    def test_long_xor_chain_sat(self):
        formula = CnfFormula()
        variables = formula.new_variables(40)
        gate = encode_xor_many(formula, variables)
        formula.add_unit(gate)
        result = solve_formula(formula)
        assert result.is_sat
        assert sum(result.model[v] for v in variables) % 2 == 1


class TestCardinalityInteraction:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 8), st.integers(0, 1000))
    def test_at_most_k_with_forcing_clauses(self, n, k, seed):
        rng = random.Random(seed)
        formula = CnfFormula()
        variables = formula.new_variables(n)
        bound = min(k, n)
        formula.add_unit(add_totalizer_ladder(formula, variables, bound)[bound])
        forced = rng.sample(variables, rng.randint(0, n))
        for variable in forced:
            formula.add_unit(variable)
        result = solve_formula(formula)
        assert result.is_sat == (len(forced) <= bound)
        if result.is_sat:
            assert sum(result.model[v] for v in variables) <= bound

    def test_exactly_boundary(self):
        formula = CnfFormula()
        variables = formula.new_variables(6)
        formula.add_unit(add_totalizer_ladder(formula, variables, 3)[3])
        formula.add_clause(variables)  # at least one
        result = solve_formula(formula)
        assert result.is_sat
        count = sum(result.model[v] for v in variables)
        assert 1 <= count <= 3


class TestSolverInternals:
    def test_restarts_occur_on_hard_instances(self):
        # A hard random instance at the phase transition forces restarts.
        rng = random.Random(7)
        formula = CnfFormula()
        formula.new_variables(60)
        for _ in range(256):
            vs = rng.sample(range(1, 61), 3)
            formula.add_clause(rng.choice((-1, 1)) * v for v in vs)
        result = solve_formula(formula)
        assert result.status in ("SAT", "UNSAT")

    def test_zero_conflict_budget(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        formula.add_clause((a, b))
        formula.add_clause((-a, c))
        result = solve_formula(formula, max_conflicts=0)
        # no conflicts needed: pure decisions suffice -> still SAT
        assert result.is_sat

    def test_time_budget_respected(self):
        import itertools

        formula = CnfFormula()
        slot = {}
        pigeons, holes = 10, 9
        for p in range(pigeons):
            for h in range(holes):
                slot[p, h] = formula.new_variable()
        for p in range(pigeons):
            formula.add_clause(slot[p, h] for h in range(holes))
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                formula.add_clause((-slot[p1, h], -slot[p2, h]))
        result = solve_formula(formula, time_budget_s=0.2)
        assert result.status == "UNKNOWN"
        assert result.elapsed_s < 5.0

    def test_duplicate_clauses_harmless(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        for _ in range(50):
            formula.add_clause((a, b))
            formula.add_clause((-a, b))
        result = solve_formula(formula)
        assert result.is_sat
        assert result.model[b]

    def test_all_variables_in_model_even_unconstrained(self):
        formula = CnfFormula()
        formula.new_variables(5)
        formula.add_unit(3)
        result = solve_formula(formula)
        assert set(result.model) == {1, 2, 3, 4, 5}
        assert result.model[3] is True

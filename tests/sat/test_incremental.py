"""Incremental solving: assumptions, clause reuse, and the bound ladder."""

import itertools
import random

import pytest

from repro.sat import (
    CdclSolver,
    CnfFormula,
    add_totalizer_ladder,
    dpll_solve,
    enumerate_models,
    evaluate_formula,
)


def _random_formula(seed: int, num_vars: int, num_clauses: int) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula()
    formula.new_variables(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        formula.add_clause(
            rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)
        )
    return formula


def _pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    formula = CnfFormula()
    slot = {}
    for p in range(pigeons):
        for h in range(holes):
            slot[p, h] = formula.new_variable()
    for p in range(pigeons):
        formula.add_clause(slot[p, h] for h in range(holes))
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            formula.add_clause((-slot[p1, h], -slot[p2, h]))
    return formula


class TestAssumptions:
    def test_sat_model_respects_assumptions(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))
        solver = CdclSolver(formula)
        result = solver.solve(assumptions=[-a])
        assert result.is_sat
        assert result.model[a] is False and result.model[b] is True

    def test_unsat_under_assumptions_is_flagged(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        formula.add_clause((a, b))
        formula.add_clause((-a, c))
        solver = CdclSolver(formula)
        result = solver.solve(assumptions=[-b, -c])
        assert result.is_unsat and result.under_assumptions

    def test_solver_state_survives_failed_assumptions(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        formula.add_clause((a, b))
        formula.add_clause((-a, c))
        solver = CdclSolver(formula)
        assert solver.solve(assumptions=[-b, -c]).is_unsat
        again = solver.solve()
        assert again.is_sat
        assert evaluate_formula(formula, again.model)

    def test_globally_unsat_is_not_blamed_on_assumptions(self):
        formula = CnfFormula()
        a = formula.new_variable()
        formula.add_unit(a)
        formula.add_unit(-a)
        result = CdclSolver(formula).solve(assumptions=[a])
        assert result.is_unsat and not result.under_assumptions

    def test_conflicting_assumption_pair(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))
        result = CdclSolver(formula).solve(assumptions=[a, -a])
        assert result.is_unsat and result.under_assumptions

    def test_assumption_outside_pool_rejected(self):
        formula = CnfFormula()
        formula.new_variable()
        solver = CdclSolver(formula)
        with pytest.raises(ValueError):
            solver.solve(assumptions=[5])
        with pytest.raises(ValueError):
            solver.solve(assumptions=[0])

    def test_assumptions_agree_with_added_units(self):
        """Assuming L must answer exactly like solving with clause (L)."""
        for seed in range(60):
            formula = _random_formula(seed, num_vars=6, num_clauses=14)
            solver = CdclSolver(formula)
            for variable in range(1, 7):
                for literal in (variable, -variable):
                    assumed = solver.solve(assumptions=[literal])
                    augmented = formula.copy()
                    augmented.add_clause((literal,))
                    assert assumed.status == dpll_solve(augmented).status
                    if assumed.is_sat:
                        assert evaluate_formula(formula, assumed.model)
                        assert assumed.model[abs(literal)] is (literal > 0)


class TestClauseReuse:
    def test_learned_clauses_survive_between_calls(self):
        formula = _pigeonhole(5, 5)  # SAT; all-true phases force conflicts
        solver = CdclSolver(
            formula,
            seed_phases={v: True for v in range(1, formula.num_variables + 1)},
        )
        first = solver.solve()
        assert first.is_sat and first.conflicts > 0
        assert len(solver.learned) > 0
        carried = len(solver.learned)
        second = solver.solve()
        assert second.is_sat
        # the second call starts from the first call's clause database
        assert second.learned_clauses >= carried
        assert second.conflicts == 0  # saved phases walk straight to a model

    def test_unsat_proof_is_remembered(self):
        formula = _pigeonhole(5, 4)  # UNSAT: learning required to prove it
        solver = CdclSolver(formula)
        first = solver.solve()
        second = solver.solve()
        assert first.is_unsat and second.is_unsat
        assert first.conflicts > 0
        assert second.conflicts == 0  # the root-level proof persists

    def test_incremental_add_clause_enumerates_models(self):
        formula = _random_formula(3, num_vars=5, num_clauses=6)
        expected = len(list(enumerate_models(formula, list(range(1, 6)), limit=64)))
        solver = CdclSolver(formula)
        found = 0
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            found += 1
            assert evaluate_formula(formula, result.model)
            blocking = [
                (-v if result.model[v] else v) for v in range(1, 6)
            ]
            solver.add_clause(blocking)
        assert found == expected

    def test_add_clause_rejects_unknown_variable(self):
        formula = CnfFormula()
        formula.new_variable()
        solver = CdclSolver(formula)
        with pytest.raises(ValueError):
            solver.add_clause([2])

    def test_set_phases_steers_first_model(self):
        formula = CnfFormula()
        variables = formula.new_variables(4)
        formula.add_clause(variables)  # everything else is free
        solver = CdclSolver(formula)
        solver.set_phases({v: True for v in variables})
        result = solver.solve()
        assert all(result.model[v] for v in variables)
        solver.add_clause([-variables[0]])
        solver.set_phases({v: False for v in variables[1:]})
        result = solver.solve()
        assert result.model[variables[0]] is False


class TestLadder:
    def test_ladder_bounds_match_bruteforce(self):
        rng = random.Random(11)
        for _ in range(40):
            count = rng.randint(1, 5)
            formula = CnfFormula()
            literals = formula.new_variables(count)
            max_bound = rng.randint(0, count + 1)
            selectors = add_totalizer_ladder(formula, literals, max_bound)
            assert len(selectors) == max_bound + 1
            forced = [v for v in literals if rng.random() < 0.5]
            solver = CdclSolver(formula)
            for bound in range(max_bound + 1):
                result = solver.solve(assumptions=[selectors[bound]] + forced)
                assert result.is_sat == (len(forced) <= bound)
                if result.is_sat:
                    assert sum(result.model[v] for v in literals) <= bound

    def test_ladder_descends_like_fresh_constraints(self):
        """Tightening the assumed bound on one instance finds the same
        SAT/UNSAT frontier as rebuilding the formula per bound."""

        def build():
            formula = CnfFormula()
            literals = formula.new_variables(6)
            formula.add_clause(literals[:3])  # at least one of the first three
            formula.add_clause(literals[3:])  # and one of the last three
            return formula, add_totalizer_ladder(formula, literals, 6)

        formula, selectors = build()
        solver = CdclSolver(formula)
        statuses = [
            solver.solve(assumptions=[selectors[b]]).status for b in range(6, -1, -1)
        ]
        assert statuses == ["SAT"] * 5 + ["UNSAT", "UNSAT"]
        fresh = []
        for bound in range(6, -1, -1):
            formula, selectors = build()
            formula.add_unit(selectors[bound])
            fresh.append(CdclSolver(formula).solve().status)
        assert fresh == statuses

    def test_weighted_ladder(self):
        from repro.core import FermihedralEncoder

        encoder = FermihedralEncoder(2)
        a, b = encoder.formula.new_variables(2)
        selectors = encoder.weight_ladder([a, b], 5, (2, 3))
        solver = CdclSolver(encoder.formula)
        for bound in range(6):
            result = solver.solve(assumptions=[selectors[bound], a, b])
            assert result.is_sat == (bound >= 5)
        result = solver.solve(assumptions=[selectors[2], b])
        assert result.is_unsat and result.under_assumptions
        result = solver.solve(assumptions=[selectors[2], a])
        assert result.is_sat

    def test_vacuous_bounds_are_tautological(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        selectors = add_totalizer_ladder(formula, [a, b], 4)
        solver = CdclSolver(formula)
        result = solver.solve(assumptions=[selectors[4], a, b])
        assert result.is_sat

    def test_negative_bound_rejected(self):
        formula = CnfFormula()
        a = formula.new_variable()
        with pytest.raises(ValueError):
            add_totalizer_ladder(formula, [a], -1)

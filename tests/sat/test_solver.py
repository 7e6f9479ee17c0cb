"""Tests for the CDCL solver, including cross-validation against DPLL."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    CdclSolver,
    CnfFormula,
    dpll_solve,
    evaluate_formula,
    luby,
    solve_formula,
)


def _random_formula(seed: int, num_vars: int, num_clauses: int, width: int = 3) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula()
    formula.new_variables(num_vars)
    for _ in range(num_clauses):
        clause_width = rng.randint(1, width)
        formula.add_clause(
            rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(clause_width)
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


class TestBasics:
    def test_trivial_sat(self):
        formula = CnfFormula()
        a = formula.new_variable()
        formula.add_unit(a)
        result = solve_formula(formula)
        assert result.is_sat
        assert result.model[a] is True

    def test_trivial_unsat(self):
        formula = CnfFormula()
        a = formula.new_variable()
        formula.add_unit(a)
        formula.add_unit(-a)
        assert solve_formula(formula).is_unsat

    def test_no_clauses_sat(self):
        formula = CnfFormula()
        formula.new_variables(3)
        result = solve_formula(formula)
        assert result.is_sat
        assert set(result.model) == {1, 2, 3}

    def test_tautology_ignored(self):
        formula = CnfFormula()
        a = formula.new_variable()
        formula.add_clause((a, -a))
        assert solve_formula(formula).is_sat

    def test_duplicate_literals_handled(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, a, b))
        formula.add_unit(-a)
        result = solve_formula(formula)
        assert result.is_sat and result.model[b]

    def test_unit_propagation_chain(self):
        formula = CnfFormula()
        variables = formula.new_variables(5)
        formula.add_unit(variables[0])
        for left, right in zip(variables, variables[1:]):
            formula.add_clause((-left, right))
        result = solve_formula(formula)
        assert result.is_sat
        assert all(result.model[v] for v in variables)


class TestConflictDriven:
    def test_pigeonhole_unsat(self):
        assert solve_formula(_pigeonhole(4, 3)).is_unsat
        assert solve_formula(_pigeonhole(6, 5)).is_unsat

    def test_pigeonhole_sat_when_feasible(self):
        result = solve_formula(_pigeonhole(3, 3))
        assert result.is_sat

    def test_conflict_budget_returns_unknown(self):
        result = solve_formula(_pigeonhole(8, 7), max_conflicts=5)
        assert result.status == UNKNOWN

    def test_statistics_populated(self):
        result = solve_formula(_pigeonhole(5, 4))
        assert result.conflicts > 0
        assert result.propagations > 0
        assert result.elapsed_s >= 0.0


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_dpll_small(self, seed):
        formula = _random_formula(seed, num_vars=8, num_clauses=30)
        cdcl = solve_formula(formula)
        dpll = dpll_solve(formula)
        assert cdcl.status == dpll.status
        if cdcl.is_sat:
            assert evaluate_formula(formula, cdcl.model)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 10), st.integers(1, 40))
    def test_agrees_with_dpll_property(self, seed, num_vars, num_clauses):
        formula = _random_formula(seed, num_vars, num_clauses)
        cdcl = solve_formula(formula)
        dpll = dpll_solve(formula)
        assert cdcl.status == dpll.status
        if cdcl.is_sat:
            assert evaluate_formula(formula, cdcl.model)

    def test_phase_transition_models_valid(self):
        for seed in range(5):
            formula = _random_formula(seed, num_vars=40, num_clauses=170)
            result = solve_formula(formula)
            assert result.status in (SAT, UNSAT)
            if result.is_sat:
                assert evaluate_formula(formula, result.model)


class TestSeedPhases:
    def test_seed_phases_bias_model(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))  # both-true, a-true, b-true all valid
        result = solve_formula(formula, seed_phases={a: True, b: False})
        assert result.is_sat
        assert result.model[a] is True

    def test_out_of_range_seeds_ignored(self):
        formula = CnfFormula()
        formula.new_variable()
        formula.add_unit(1)
        result = solve_formula(formula, seed_phases={99: True})
        assert result.is_sat


class TestVsidsRescale:
    def test_rescale_requeues_at_current_activities(self):
        """After the 1e-100 rescale, a variable bumped before it (activity
        9e99 -> 0.9) must not outrank the one that triggered it (1.2e100 ->
        1.2) on the strength of its stale pre-rescale heap key."""
        formula = CnfFormula()
        formula.new_variables(4)
        formula.add_clause((1, 2, 3, 4))
        solver = CdclSolver(formula)
        solver.var_inc = 9e99
        solver._bump_variable(1)
        solver.var_inc = 1.2e100
        solver._bump_variable(4)
        assert solver.activity[1] == pytest.approx(0.9)
        assert solver.activity[4] == pytest.approx(1.2)
        assert solver._pick_branch_variable() == 4
        assert solver._pick_branch_variable() == 1


class TestOrderHeap:
    """The VSIDS heap is lazy, yet every pick is the exact argmax of
    ``(activity, -variable)`` over free in-use variables."""

    _OPS = st.sampled_from(["bump", "decay", "decide", "imply", "backtrack",
                            "conflict", "rescale", "pick"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_OPS, st.integers(1, 6)), max_size=150))
    def test_pick_is_the_activity_argmax(self, ops):
        formula = CnfFormula()
        formula.new_variables(6)
        formula.add_clause((1, 2, 3))
        formula.add_clause((-3, 4, 5))  # variable 6 is in no clause
        solver = CdclSolver(formula)
        in_use = [v for v in range(1, 7) if solver.in_use[v]]

        def free(variable):
            return solver.assign[variable << 1] == 0

        def decide(variable):
            solver.trail_lim.append(len(solver.trail))
            solver._enqueue(variable << 1, 0)

        def check_pick():
            candidates = [v for v in in_use if free(v)]
            expected = (max(candidates, key=lambda v: (solver.activity[v], -v))
                        if candidates else None)
            picked = solver._pick_branch_variable()
            assert picked == expected
            if picked is not None:
                decide(picked)
            return picked

        for op, arg in ops:
            if op == "bump":
                solver._bump_variable(in_use[arg % len(in_use)])
            elif op == "decay":
                solver._decay_activities()
            elif op == "decide" and free(arg):
                decide(arg)  # variable 6 stands in for an assumption
            elif op == "imply" and free(arg) and solver.trail_lim:
                solver._enqueue(arg << 1 | 1, 0)
            elif op == "backtrack":
                solver._backtrack(arg % (len(solver.trail_lim) + 1))
            elif op == "conflict" and solver.trail_lim:
                # As conflict analysis does: bump assigned variables above
                # the root, then backtrack at least one level, which is
                # where their new keys are pushed.
                for encoded in solver.trail[solver.trail_lim[0]:]:
                    if solver.in_use[encoded >> 1]:
                        solver._bump_variable(encoded >> 1)
                solver._backtrack(arg % len(solver.trail_lim))
            elif op == "rescale":
                solver.var_inc = 1e100
                solver._bump_variable(in_use[arg % len(in_use)])
            elif op == "pick":
                check_pick()
        assert len(solver.order_heap) <= 8 * solver.num_vars
        # Drain to a full assignment, as a satisfying search ends.
        while check_pick() is not None:
            pass

    def test_assumed_unconstrained_variable_is_not_decided(self):
        """A variable in no clause that was only ever assumed must not be
        requeued on backtrack: the follow-up call decides one variable."""
        formula = CnfFormula()
        formula.new_variables(3)
        formula.add_clause((1, 2))
        formula.add_clause((-1, 2))
        solver = CdclSolver(formula)
        assert solver.solve(assumptions=(3,)).is_sat
        result = solver.solve()
        assert result.is_sat
        assert result.decisions == 1
        assert result.model[2] is True


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)

    def test_values_are_powers_of_two(self):
        for index in range(1, 200):
            value = luby(index)
            assert value & (value - 1) == 0

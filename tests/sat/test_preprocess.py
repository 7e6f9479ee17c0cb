"""Preprocessing correctness: equisatisfiability against the DPLL
reference, model reconstruction onto the original formula, the
frozen-variable contract (assumptions and late clause additions keep
their meaning on the simplified instance), and output identical line for
line to the full-sweep reference on random and descent-built inputs."""

import dataclasses
import hashlib
import importlib
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import FermihedralConfig
from repro.core.pipeline import FermihedralCompiler
from repro.sat import (
    CdclSolver,
    CnfFormula,
    ProofLog,
    dpll_solve,
    evaluate_formula,
    preprocess,
)
from repro.sat.preprocess import MEMO_CAPACITY, clear_memo
from repro.telemetry import Telemetry


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


class TestEquisatisfiability:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 50))
    def test_status_matches_dpll(self, seed, num_vars, num_clauses):
        formula = _random_formula(seed, num_vars, num_clauses)
        simplified = preprocess(formula)
        assert CdclSolver(simplified.formula).solve().status == dpll_solve(formula).status

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 50))
    def test_reconstructed_models_satisfy_original(self, seed, num_vars, num_clauses):
        formula = _random_formula(seed, num_vars, num_clauses)
        simplified = preprocess(formula)
        result = CdclSolver(simplified.formula).solve()
        if result.is_sat:
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)

    def test_queued_unit_survives_elimination(self):
        # Eliminating 3 resolves (3 ∨ 4) with (¬3 ∨ 4) into the unit 4,
        # queued but not yet propagated; the same sweep must not then
        # eliminate 4 as a pure literal, or reconstruction sets it False.
        formula = CnfFormula()
        formula.new_variables(5)
        for clause in [(1, 3), (-1, 2), (4, -3), (4, -1), (-5, -4)]:
            formula.add_clause(clause)
        simplified = preprocess(formula)
        result = CdclSolver(simplified.formula).solve()
        assert result.is_sat
        assert evaluate_formula(formula, simplified.reconstruct(result.model))

    def test_unsat_shortcircuits(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_unit(a)
        formula.add_clause((-a, b))
        formula.add_unit(-b)
        simplified = preprocess(formula)
        assert simplified.unsat
        assert CdclSolver(simplified.formula).solve().is_unsat
        # The refuted stand-in keeps the variable pool intact.
        assert simplified.formula.num_variables == 2

    def test_variable_pool_preserved(self):
        formula = _random_formula(5, num_vars=9, num_clauses=20)
        simplified = preprocess(formula)
        assert simplified.formula.num_variables == 9


class TestFrozenContract:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(4, 10),
        st.integers(2, 40),
        st.data(),
    )
    def test_assumptions_on_frozen_match_dpll(self, seed, num_vars, num_clauses, data):
        """Assuming frozen literals on the simplified instance must answer
        exactly like adding them as units to the untouched original."""
        formula = _random_formula(seed, num_vars, num_clauses)
        frozen = data.draw(
            st.sets(st.integers(1, num_vars), min_size=1, max_size=num_vars // 2)
        )
        assumptions = [
            variable if data.draw(st.booleans()) else -variable
            for variable in sorted(frozen)
        ]
        simplified = preprocess(formula, frozen=frozen)
        augmented = formula.copy()
        for literal in assumptions:
            augmented.add_clause((literal,))
        expected = dpll_solve(augmented).status
        result = CdclSolver(simplified.formula).solve(assumptions=assumptions)
        assert result.status == expected
        if result.is_sat:
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)
            # Frozen variables keep their solver-visible values.
            for literal in assumptions:
                assert full[abs(literal)] is (literal > 0)

    def test_frozen_variables_never_eliminated(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        # b is a pure literal and a single-use gate — prime elimination bait.
        formula.add_clause((a, b))
        formula.add_clause((b, c))
        simplified = preprocess(formula, frozen=[b])
        assert not any(
            kind == "elim" and variable == b
            for kind, variable, _ in simplified._records
        )

    def test_root_fixed_frozen_variable_keeps_unit(self):
        """A frozen variable fixed by unit propagation must stay visible as
        a unit clause so a contradicting assumption answers UNSAT."""
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_unit(a)
        formula.add_clause((-a, b))
        simplified = preprocess(formula, frozen=[a, b])
        result = CdclSolver(simplified.formula).solve(assumptions=[-b])
        assert result.is_unsat and result.under_assumptions
        result = CdclSolver(simplified.formula).solve(assumptions=[b])
        assert result.is_sat

    def test_late_blocking_clause_over_frozen_variables(self):
        """Model enumeration over frozen variables agrees with the
        original formula (the descent repair-loop pattern)."""
        formula = _random_formula(17, num_vars=6, num_clauses=10)
        frozen = [1, 2, 3]
        simplified = preprocess(formula, frozen=frozen)
        solver = CdclSolver(simplified.formula)
        seen = set()
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)
            projection = tuple(full[v] for v in frozen)
            assert projection not in seen
            seen.add(projection)
            solver.add_clause([-v if full[v] else v for v in frozen])
        # Compare against brute force over the original formula.
        expected = set()
        import itertools
        for bits in itertools.product([False, True], repeat=6):
            assignment = {v: bits[v - 1] for v in range(1, 7)}
            if evaluate_formula(formula, assignment):
                expected.add(tuple(assignment[v] for v in frozen))
        assert seen == expected


class TestStats:
    def test_stats_reflect_work(self):
        formula = CnfFormula()
        variables = formula.new_variables(6)
        formula.add_unit(variables[0])                       # fixed
        formula.add_clause((variables[1], variables[2]))
        formula.add_clause((variables[1], variables[2], variables[3]))  # subsumed
        simplified = preprocess(formula)
        stats = simplified.stats
        assert stats.original_clauses == 3
        assert stats.fixed_variables >= 1
        assert stats.simplified_clauses <= stats.original_clauses
        assert "clauses" in stats.summary()

    def test_pure_literal_is_eliminated(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))  # both pure
        simplified = preprocess(formula)
        assert simplified.formula.num_clauses == 0
        model = simplified.reconstruct({})
        assert evaluate_formula(formula, model)

    def test_bounded_elimination_respects_growth_limit(self):
        # A variable with many occurrences on both sides must survive.
        formula = CnfFormula()
        pivot = formula.new_variable()
        others = formula.new_variables(30)
        for other in others[:15]:
            formula.add_clause((pivot, other))
        for other in others[15:]:
            formula.add_clause((-pivot, other))
        simplified = preprocess(formula)
        assert not any(
            kind == "elim" and variable == pivot
            for kind, variable, _ in simplified._records
        )


class TestIdempotence:
    @pytest.mark.parametrize("seed", range(6))
    def test_second_pass_is_stable(self, seed):
        formula = _random_formula(seed, num_vars=10, num_clauses=30)
        once = preprocess(formula)
        twice = preprocess(once.formula)
        assert twice.formula.num_clauses <= once.formula.num_clauses
        assert (
            CdclSolver(twice.formula).solve().status
            == CdclSolver(once.formula).solve().status
        )


# -- incremental passes against the full-sweep reference ---------------------

_preprocess_module = importlib.import_module("repro.sat.preprocess")


def _signature(clause) -> int:
    """61-bit subsumption filter: ``sig(C) & ~sig(D)`` nonzero ⇒ C ⊄ D."""
    sig = 0
    for literal in clause:
        sig |= 1 << ((literal * 2 if literal > 0 else -literal * 2 + 1) % 61)
    return sig


class _FullSweepSimplifier(_preprocess_module._Simplifier):
    """The reference the incremental passes must match line for line:
    BVE looks at every variable in every round, and self-subsumption
    scans ``occurs[-l]`` once per literal ``l`` of the subsumer, behind
    a signature filter of its own."""

    def subsumption_round(self) -> bool:
        changed = False
        proof = self.proof
        queue = [index for index in self.touched if self.clauses[index] is not None]
        self.touched = []
        while queue:
            index = queue.pop()
            clause = self.clauses[index]
            if clause is None:
                continue
            sig = _signature(clause)
            pivot = min(clause, key=lambda lit: len(self.occurs.get(lit, ())))
            for other_index in list(self.occurs.get(pivot, ())):
                if other_index == index:
                    continue
                other = self.clauses[other_index]
                if other is None or sig & ~_signature(other):
                    continue
                if len(other) < len(clause):
                    continue
                if clause <= other:
                    if proof is not None:
                        proof.delete(sorted(other))
                    self._remove_clause(other_index)
                    self.stats.subsumed_clauses += 1
                    changed = True
            for literal in list(clause):
                rest = clause - {literal}
                rest_sig = _signature(rest)
                for other_index in list(self.occurs.get(-literal, ())):
                    other = self.clauses[other_index]
                    if other is None or rest_sig & ~_signature(other):
                        continue
                    if len(other) < len(clause):
                        continue
                    if rest <= other:
                        old = sorted(other) if proof is not None else None
                        self._unlink_literal(other_index, -literal)
                        self.stats.strengthened_clauses += 1
                        changed = True
                        strengthened = self.clauses[other_index]
                        if proof is not None:
                            proof.add(sorted(strengthened))
                            proof.delete(old)
                        if len(strengthened) == 1:
                            self.unit_queue.append(next(iter(strengthened)))
                            self._remove_clause(other_index)
                        else:
                            queue.append(other_index)
                            self.touched.append(other_index)
                if self.clauses[index] is None:
                    break
        return changed

    def eliminate_variables(self, occurrence_limit: int) -> bool:
        changed = False
        pending: set[int] = set()  # variables of this sweep's unit resolvents
        for variable in range(1, self.num_variables + 1):
            if (variable in self.frozen or variable in self.fixed
                    or variable in pending):
                continue
            pos = self.occurs.get(variable, set())
            neg = self.occurs.get(-variable, set())
            if not pos and not neg:
                continue
            if len(pos) + len(neg) > occurrence_limit:
                continue
            pos_clauses = [self.clauses[i] for i in pos]
            neg_clauses = [self.clauses[i] for i in neg]
            resolvents: list[set[int]] = []
            acceptable = True
            for positive in pos_clauses:
                for negative in neg_clauses:
                    resolvent = (positive - {variable}) | (negative - {-variable})
                    if any(-literal in resolvent for literal in resolvent):
                        continue
                    resolvents.append(resolvent)
                    if len(resolvents) > len(pos) + len(neg):
                        acceptable = False
                        break
                if not acceptable:
                    break
            if not acceptable:
                continue
            saved = [tuple(sorted(clause)) for clause in pos_clauses + neg_clauses]
            self.records.append(("elim", variable, saved))
            self.stats.eliminated_variables += 1
            if self.proof is not None:
                for resolvent in resolvents:
                    self.proof.add(sorted(resolvent))
                for clause in saved:
                    self.proof.delete(clause)
            for index in list(pos) + list(neg):
                self._remove_clause(index)
            for resolvent in resolvents:
                if len(resolvent) == 1:
                    unit = next(iter(resolvent))
                    self.unit_queue.append(unit)
                    pending.add(abs(unit))
                else:
                    self._add_clause(resolvent)
            changed = True
        return changed


def _emitted(formula, frozen=(), **options):
    """Everything a preprocessing call emits: simplified clauses in order,
    reconstruction records, stats and DRAT lines; plus the result."""
    log = ProofLog()
    result = preprocess(formula, frozen=frozen, proof=log, **options)
    return (list(result.formula.clauses()), result._records,
            dataclasses.asdict(result.stats), log.lines), result


def _outcome(formula, frozen=(), simplifier=None, **options):
    """What a cold preprocessing run emits (see :func:`_emitted`)."""
    clear_memo()
    with mock.patch.object(_preprocess_module, "_Simplifier",
                           simplifier or _preprocess_module._Simplifier):
        return _emitted(formula, frozen, **options)[0]


def _overlapping_formula(seed: int) -> tuple[CnfFormula, set[int], int]:
    """A random CNF in which many clauses extend or flip-and-extend an
    earlier one, so subsumption, self-subsumption and elimination all find
    work, often in more than one round; plus a random frozen set and BVE
    occurrence limit."""
    rng = random.Random(seed)
    num_vars = rng.randint(4, 24)
    formula = CnfFormula()
    formula.new_variables(num_vars)

    def literal():
        return rng.choice((-1, 1)) * rng.randint(1, num_vars)

    clauses: list[list[int]] = []
    for _ in range(rng.randint(num_vars, 4 * num_vars)):
        if clauses and rng.random() < 0.4:
            clause = list(rng.choice(clauses))
            if rng.random() < 0.5:
                flipped = rng.randrange(len(clause))
                clause[flipped] = -clause[flipped]
            clause += [literal() for _ in range(rng.randint(0, 2))]
        else:
            width = 1 if rng.random() < 0.03 else rng.randint(2, 4)
            clause = [literal() for _ in range(width)]
        clauses.append(clause)
        formula.add_clause(clause)
    frozen = {rng.randint(1, num_vars) for _ in range(rng.randint(0, num_vars // 3))}
    return formula, frozen, rng.choice((2, 4, 8, 20))


def _assert_matches_reference(seed):
    formula, frozen, limit = _overlapping_formula(seed)
    assert _outcome(formula, frozen, bve_occurrence_limit=limit) == _outcome(
        formula, frozen, _FullSweepSimplifier, bve_occurrence_limit=limit)


class TestMatchesFullSweepReference:
    # Seeds of the rarer paths: a clause strengthened in a later round
    # makes a variable BVE rejected before eliminable (227, 249), and one
    # literal has several self-subsumption partners (40, 91).
    @example(227)
    @example(249)
    @example(40)
    @example(91)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_same_output_as_reference(self, seed):
        _assert_matches_reference(seed)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="wide equivalence sweep only runs with REPRO_SLOW_TESTS=1",
    )
    @settings(max_examples=3000, deadline=None)
    @given(st.integers(0, 2**32))
    def test_same_output_as_reference_wide(self, seed):
        _assert_matches_reference(seed)


# -- golden pins on the descent's own preprocessing inputs --------------------


class _Captured(Exception):
    pass


def _descent_input(modes, device, **config):
    """The formula and frozen set a compile hands to ``preprocess``."""
    captured = {}

    def capture(formula, frozen=(), **_):
        captured["formula"] = formula.copy()
        captured["frozen"] = sorted(frozen)
        raise _Captured

    compiler = FermihedralCompiler(modes, FermihedralConfig(**config),
                                   device=device)
    with mock.patch.object(_preprocess_module, "preprocess", capture):
        with pytest.raises(_Captured):
            compiler.compile(method="independent")
    return captured["formula"], captured["frozen"]


class TestGoldenOutputs:
    """sha256 of :func:`_outcome` on the inputs the descent builds, pinned
    from the full-sweep implementation.  N=6 on ``linear-6`` runs five
    rounds and subsumes 186 clauses."""

    @pytest.mark.parametrize("modes, device, config, stats, digest", [
        (3, "linear-3", {"proof": True},
         (1249, 1088, 15, 122, 15, 6, 22, 2),
         "13406d10c494b283069de0ff44b1949131a308dee83653b46d8d11cbd451bca5"),
        (4, None, {"proof": True},
         (2380, 2087, 28, 305, 28, 0, 90, 2),
         "758edee717e6d9ff7746e02a7f3f5e654a9211c821669a1025f05fc779da12bd"),
        (6, "linear-6", {"algebraic_independence": False},
         (15164, 14023, 66, 1171, 66, 186, 138, 5),
         "89fa3a47ee4e821b94a15c6eeda46562f0f8ed963a480c927a6f2d908c7da789"),
    ])
    def test_descent_input_is_pinned(self, modes, device, config, stats, digest):
        formula, frozen = _descent_input(modes, device, **config)
        outcome = _outcome(formula, frozen)
        summary = outcome[2]
        assert (summary["original_clauses"], summary["simplified_clauses"],
                summary["fixed_variables"], summary["eliminated_variables"],
                summary["substituted_variables"], summary["subsumed_clauses"],
                summary["strengthened_clauses"], summary["rounds"]) == stats
        payload = json.dumps(outcome, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


# -- the once-per-process memo -------------------------------------------------


def _variant(formula, frozen, rng):
    """A near copy of ``(formula, frozen)`` with as many clauses: one
    literal flipped, the clause order reversed, or one more variable
    frozen."""
    clauses = [list(clause) for clause in formula.clauses()]
    frozen = set(frozen)
    change = rng.randrange(3)
    if change == 0:
        clause = rng.choice(clauses)
        position = rng.randrange(len(clause))
        clause[position] = -clause[position]
    elif change == 1:
        clauses.reverse()
    else:
        frozen.add(rng.randint(1, formula.num_variables))
    other = CnfFormula()
    other.new_variables(formula.num_variables)
    other.add_clauses(clauses)
    return other, frozen


def _cold_runs():
    """A counting wrapper around the simplifier a miss runs."""
    return mock.patch.object(_preprocess_module, "_simplify",
                             wraps=_preprocess_module._simplify)


class TestMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_memo_answers_like_a_cold_run(self, seed, variant_seed):
        formula, frozen, limit = _overlapping_formula(seed)
        rng = random.Random(variant_seed)
        other, other_frozen = _variant(formula, frozen, rng)
        inputs = [(formula, frozen), (other, other_frozen)]
        cold = [_outcome(f, fr, bve_occurrence_limit=limit)
                for f, fr in inputs]
        for (f, fr), expected in zip(inputs, cold):
            clear_memo()
            _, reference = _emitted(f, fr, bve_occurrence_limit=limit)
            with _cold_runs() as runs:
                outcome, reused = _emitted(f, fr, bve_occurrence_limit=limit)
            assert runs.call_count == 0 and outcome == expected
            for _ in range(4):
                model = {variable: rng.random() < 0.5
                         for variable in range(1, f.num_variables + 1)}
                assert reused.reconstruct(model) == reference.reconstruct(model)
        # Both inputs in the memo at once: each still gets its own answer.
        for f, fr in inputs:
            _emitted(f, fr, bve_occurrence_limit=limit)
        with _cold_runs() as runs:
            for (f, fr), expected in zip(inputs * 2, cold * 2):
                assert _emitted(f, fr, bve_occurrence_limit=limit)[0] == expected
        assert runs.call_count == 0

    def test_near_misses_never_hit(self):
        formula, frozen, _ = _overlapping_formula(7)
        preprocess(formula, frozen=frozen)
        clauses = [list(clause) for clause in formula.clauses()]

        def rebuilt(clause_list):
            copy = CnfFormula()
            copy.new_variables(formula.num_variables)
            copy.add_clauses(clause_list)
            return copy

        flipped = [list(clause) for clause in clauses]
        flipped[3][0] = -flipped[3][0]
        more_frozen = set(frozen) | {
            next(v for v in range(1, formula.num_variables + 1)
                 if v not in frozen)}
        near_misses = [
            (rebuilt(flipped), frozen, {}),
            (rebuilt(clauses[1:] + clauses[:1]), frozen, {}),
            (formula, more_frozen, {}),
            (formula, frozen, {"max_rounds": 9}),
            (formula, frozen, {"bve_occurrence_limit": 19}),
        ]
        with _cold_runs() as runs:
            for count, (near, near_frozen, options) in enumerate(near_misses):
                preprocess(near, frozen=near_frozen, **options)
                assert runs.call_count == count + 1
                # An equal input in new objects still hits.
                preprocess(formula.copy(), frozen=list(frozen))
                assert runs.call_count == count + 1

    def test_least_recently_used_entry_is_evicted(self):
        formulas = [_overlapping_formula(seed)[0]
                    for seed in range(MEMO_CAPACITY + 1)]
        for formula in formulas[:MEMO_CAPACITY]:
            preprocess(formula)
        with _cold_runs() as runs:
            preprocess(formulas[0])  # a hit, now the most recent
            preprocess(formulas[MEMO_CAPACITY])  # evicts formulas[1]
            assert runs.call_count == 1
            for formula in [formulas[0]] + formulas[2:]:
                preprocess(formula)
            assert runs.call_count == 1
            preprocess(formulas[1])
            assert runs.call_count == 2

    def test_entry_without_proof_lines_never_serves_a_proof(self):
        formula, frozen, _ = _overlapping_formula(11)
        expected = _outcome(formula, frozen)
        clear_memo()
        preprocess(formula, frozen=frozen)
        with _cold_runs() as runs:
            assert _emitted(formula, frozen)[0] == expected
            assert _emitted(formula, frozen)[0] == expected
            assert preprocess(formula, frozen=frozen).stats.rounds \
                == expected[2]["rounds"]
        assert runs.call_count == 1

    def test_proof_lines_append_to_a_nonempty_log(self):
        formula, frozen, _ = _overlapping_formula(13)
        lines = _outcome(formula, frozen)[3]
        log = ProofLog()
        log.add((1, 2))
        preprocess(formula, frozen=frozen, proof=log)
        assert log.lines == [("a", (1, 2))] + lines

    def test_hit_emits_the_same_span_and_counters(self):
        formula, frozen, _ = _overlapping_formula(17)
        telemetry = Telemetry()

        def counts():
            return {(name, labels): child.value
                    for name, family in telemetry.metrics.families()
                    if name.startswith("repro_preprocess_")
                    for labels, child in family.children()}

        preprocess(formula, frozen=frozen, telemetry=telemetry)
        once = counts()
        preprocess(formula, frozen=frozen, telemetry=telemetry)
        assert once and counts() == {key: 2 * value
                                     for key, value in once.items()}
        cold, hit = [event["attrs"] for event in telemetry.tracer.events()
                     if event["name"] == "preprocess"]
        assert "reused" not in cold
        assert hit == dict(cold, reused=True)

    def test_threads_simplifying_one_cnf_get_equal_results(self):
        import sys
        import threading

        formula, frozen, _ = _overlapping_formula(19)
        expected = _outcome(formula, frozen)
        clear_memo()
        barrier = threading.Barrier(4)
        outcomes = []

        def simplify():
            barrier.wait()
            for _ in range(3):
                outcomes.append(_emitted(formula, frozen)[0])

        threads = [threading.Thread(target=simplify) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [expected] * 12
        # Racing cold runs of one input leave a single entry behind.
        assert len(_preprocess_module._memo) == 1

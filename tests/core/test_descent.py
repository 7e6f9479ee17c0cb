"""Tests for the Algorithm-1 descent loop."""

import pytest

from repro.core import (
    DependentModelError,
    FermihedralConfig,
    FermihedralEncoder,
    SolverBudget,
    descend,
)
from repro.core.claims import verify_proof
from repro.core.pipeline import hardware_config
from repro.core.verify import verify_encoding
from repro.encodings import MajoranaEncoding, bravyi_kitaev, jordan_wigner
from repro.fermion import hubbard_chain
from repro.hardware import resolve_device
from repro.paulis import PauliString
from repro.telemetry import Telemetry

#: Per rung ``(bound, status, conflicts, decisions, propagations)`` of the
#: budget-capped, connectivity-weighted descent: N=6, ``linear-6`` weights
#: (3,2,1,1,2,3), no algebraic-independence family, 1,000 conflicts per
#: rung.  Its last rung runs out of budget, so any change to the solver's
#: search moves it.  Its three weight classes are column-lex ordered, so a
#: change to those comparators or to the warm start moves it too.
_PINNED_WEIGHTED_DESCENT = [
    (78, "SAT", 1, 170, 1585),
    (73, "SAT", 0, 124, 1526),
    (69, "SAT", 28, 196, 5151),
    (63, "SAT", 11, 181, 2152),
    (55, "UNKNOWN", 1000, 1925, 149346),
]
#: The same descent under all-distinct weights (1,2,3,4,5,6): every qubit
#: is a class of its own, so the CNF carries no comparators and only a
#: change to the solver's search moves it.
_PINNED_DISTINCT_DESCENT = [
    (154, "SAT", 1, 95, 2240),
    (146, "SAT", 2, 117, 2445),
    (136, "UNKNOWN", 1000, 1981, 161447),
]


class TestHamiltonianIndependent:
    def test_n1_optimum_is_2(self, fast_config):
        result = descend(1, config=fast_config)
        assert result.weight == 2
        assert result.proved_optimal

    def test_n2_optimum_is_6(self, fast_config):
        result = descend(2, config=fast_config)
        assert result.weight == 6
        assert result.proved_optimal
        assert verify_encoding(result.encoding).fully_valid

    def test_n3_optimum_is_11(self, fast_config):
        result = descend(3, config=fast_config)
        assert result.weight == 11
        assert result.proved_optimal

    def test_never_worse_than_baseline(self, fast_config):
        for num_modes in (1, 2, 3):
            result = descend(num_modes, config=fast_config)
            assert result.weight <= bravyi_kitaev(num_modes).total_majorana_weight

    def test_steps_recorded(self, fast_config):
        result = descend(2, config=fast_config)
        assert result.sat_calls >= 1
        assert result.steps[-1].status in ("UNSAT", "UNKNOWN", "SAT")
        assert result.construct_time_s >= 0.0
        assert result.solve_time_s >= 0.0

    def test_custom_baseline(self, fast_config):
        result = descend(2, config=fast_config, baseline=jordan_wigner(2))
        assert result.weight == 6


class TestWithoutAlgebraicIndependence:
    def test_same_optimum_as_full(self, fast_noalg_config):
        """The w/o-Alg optimum agrees with Full SAT: both solve the same
        instance, since anticommutation implies independence."""
        result = descend(2, config=fast_noalg_config)
        assert result.weight == 6
        assert verify_encoding(result.encoding).valid

    def test_n3_valid_and_optimal(self, fast_noalg_config):
        result = descend(3, config=fast_noalg_config)
        assert result.weight == 11
        assert verify_encoding(result.encoding).valid

    def test_repairs_counted(self, fast_noalg_config):
        result = descend(2, config=fast_noalg_config)
        assert result.repairs == 0


class TestFailClosed:
    """A dependent SAT model means an encoder or solver defect: the descent
    raises instead of returning it or blocking it and retrying."""

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_dependent_model_raises(self, monkeypatch, preprocess):
        def defective_decode(self, model, validate=False):
            x = PauliString.from_label("XI")
            y = PauliString.from_label("YI")
            return MajoranaEncoding([x, y, x, y], validate=False)

        monkeypatch.setattr(FermihedralEncoder, "decode", defective_decode)
        config = FermihedralConfig(
            preprocess=preprocess, budget=SolverBudget(time_budget_s=30)
        )
        with pytest.raises(DependentModelError) as caught:
            descend(2, config)
        assert caught.value.subset == [0, 2]


class TestBudgets:
    def test_conflict_budget_stops_descent(self):
        config = FermihedralConfig(budget=SolverBudget(max_conflicts=1))
        result = descend(3, config=config)
        # budget too small to find anything: returns the baseline
        assert result.weight <= bravyi_kitaev(3).total_majorana_weight
        assert not result.proved_optimal

    def test_weighted_capped_trajectory_is_pinned(self):
        config = hardware_config(
            FermihedralConfig(algebraic_independence=False,
                              budget=SolverBudget(max_conflicts=1000)),
            resolve_device("linear-6"), 6)
        assert config.qubit_weights == (3, 2, 1, 1, 2, 3)
        result = descend(6, config=config)
        assert [(step.bound, step.status, step.conflicts, step.decisions,
                 step.propagations) for step in result.steps] == _PINNED_WEIGHTED_DESCENT
        assert not result.proved_optimal

    def test_all_distinct_capped_trajectory_is_pinned(self):
        config = FermihedralConfig(algebraic_independence=False,
                                   qubit_weights=(1, 2, 3, 4, 5, 6),
                                   budget=SolverBudget(max_conflicts=1000))
        result = descend(6, config=config)
        assert [(step.bound, step.status, step.conflicts, step.decisions,
                 step.propagations) for step in result.steps] == _PINNED_DISTINCT_DESCENT
        assert not result.proved_optimal


class TestHamiltonianDependent:
    def test_hubbard_2site_beats_bk(self, fast_config):
        hamiltonian = hubbard_chain(2, periodic=False)
        baseline_weight = bravyi_kitaev(4).hamiltonian_pauli_weight(hamiltonian)
        config = FermihedralConfig(budget=SolverBudget(time_budget_s=30))
        result = descend(
            4, config=config, hamiltonian=hamiltonian, baseline=jordan_wigner(4)
        )
        assert result.weight <= baseline_weight
        assert verify_encoding(result.encoding).valid

    def test_achieved_weight_matches_measurement(self, fast_config):
        hamiltonian = hubbard_chain(2, periodic=False)
        config = FermihedralConfig(budget=SolverBudget(time_budget_s=30))
        result = descend(4, config=config, hamiltonian=hamiltonian)
        assert result.encoding.hamiltonian_pauli_weight(hamiltonian) == result.weight


class TestPreprocessing:
    """CNF preprocessing is an execution-only knob: same optima, same
    proofs, decoded models always valid."""

    @pytest.mark.parametrize("num_modes", [2, 3])
    def test_preprocess_preserves_optimum_and_proof(self, num_modes):
        results = {}
        for preprocess in (True, False):
            config = FermihedralConfig(
                preprocess=preprocess, budget=SolverBudget(time_budget_s=30)
            )
            results[preprocess] = descend(num_modes, config)
        assert results[True].weight == results[False].weight
        assert results[True].proved_optimal == results[False].proved_optimal
        for result in results.values():
            assert verify_encoding(result.encoding).valid

    def test_preprocess_with_repair_loop(self):
        """w/o-Alg mode on the live (preprocessed) instance proves the
        same optimum with a valid encoding."""
        config = FermihedralConfig(
            algebraic_independence=False,
            budget=SolverBudget(time_budget_s=30),
        )
        result = descend(2, config)
        assert result.proved_optimal
        assert verify_encoding(result.encoding).valid

    def test_reused_simplification_repeats_the_descent(self):
        """A second N=4 proof descent in one process takes its simplified
        CNF from the preprocess memo and repeats the first one exactly:
        every rung's search, the encoding and the proof."""
        runs = []
        for _ in range(2):
            telemetry = Telemetry()
            result = descend(4, FermihedralConfig(proof=True),
                             telemetry=telemetry)
            spans = [event["attrs"] for event in telemetry.tracer.events()
                     if event["name"] == "preprocess"]
            runs.append((result, spans))
        (first, first_spans), (second, second_spans) = runs
        assert [(s.bound, s.status, s.conflicts, s.decisions, s.propagations)
                for s in second.steps] == [
            (s.bound, s.status, s.conflicts, s.decisions, s.propagations)
            for s in first.steps]
        assert second.weight == first.weight == 16
        assert second.encoding.strings == first.encoding.strings
        assert second.proof_trace.sha256() == first.proof_trace.sha256()
        for result in (first, second):
            assert verify_proof(result.proof_trace)[1].ok
        assert len(first_spans) == len(second_spans) == 1
        assert "reused" not in first_spans[0]
        assert second_spans[0]["reused"] is True

    def test_preprocess_with_qubit_weights(self):
        config = FermihedralConfig(
            qubit_weights=(1, 2), budget=SolverBudget(time_budget_s=30)
        )
        plain = descend(2, config.with_parallelism(preprocess=False))
        simplified = descend(2, config)
        assert simplified.weight == plain.weight
        assert simplified.proved_optimal == plain.proved_optimal

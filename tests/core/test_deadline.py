"""Deadline propagation: graceful degradation, never an error."""

import pytest

from repro.core import FermihedralConfig, SolverBudget, descend
from repro.core.verify import verify_encoding
from repro.encodings import bravyi_kitaev
from repro.telemetry import Telemetry

FAST_BUDGET = SolverBudget(max_conflicts=200_000, time_budget_s=60)


class TestDeadlineConfig:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            FermihedralConfig(deadline_s=0)
        with pytest.raises(ValueError, match="deadline_s"):
            FermihedralConfig(deadline_s=-1.5)

    def test_with_deadline_round_trip(self):
        config = FermihedralConfig().with_deadline(12.5)
        assert config.deadline_s == 12.5
        assert config.with_deadline(None).deadline_s is None


class TestDeadlineDescent:
    def test_expired_deadline_returns_baseline_degraded(self):
        # A deadline that expires before the first rung is the worst case:
        # the answer is the baseline itself, degraded but never an error.
        config = FermihedralConfig(budget=FAST_BUDGET).with_deadline(1e-6)
        result = descend(3, config)
        assert result.degraded
        assert not result.proved_optimal
        assert result.target_bound is not None
        assert result.steps == []
        assert result.weight == bravyi_kitaev(3).total_majorana_weight
        assert verify_encoding(result.encoding).valid

    def test_generous_deadline_changes_nothing(self):
        config = FermihedralConfig(budget=FAST_BUDGET).with_deadline(300.0)
        result = descend(2, config)
        assert not result.degraded
        assert result.target_bound is None
        assert result.proved_optimal
        assert result.weight == 6  # the known n=2 optimum

    def test_degraded_runs_bump_the_telemetry_counter(self):
        telemetry = Telemetry()
        config = FermihedralConfig(budget=FAST_BUDGET).with_deadline(1e-6)
        descend(2, config, telemetry=telemetry)
        assert "repro_descent_degraded_total" in telemetry.render_metrics()

    def test_deadline_does_not_change_the_answer_fingerprint_carries(self):
        # Execution-only semantics: with and without a (generous) deadline
        # the descent reaches the same proved optimum.
        base = FermihedralConfig(budget=FAST_BUDGET)
        plain = descend(2, base)
        timed = descend(2, base.with_deadline(600.0))
        assert timed.weight == plain.weight == 6
        assert timed.proved_optimal and plain.proved_optimal

"""Resilience plumbing at the batch layer: deadline specs, fingerprint
invariance, degraded outcomes, and the ``job.run`` chaos point."""

import pytest

from repro import chaos
from repro.core import FermihedralConfig, SolverBudget
from repro.core.verify import verify_encoding
from repro.store import CompilationCache, CompileJob
from repro.store.batch import (
    compile_job_key,
    config_from_spec,
    job_from_spec,
    run_compile_job,
)

FAST_CONFIG = FermihedralConfig(
    budget=SolverBudget(max_conflicts=200_000, time_budget_s=60)
)


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    chaos.reset()
    yield
    chaos.reset()


class TestDeadlineSpec:
    def test_config_spec_accepts_deadline(self):
        config = config_from_spec({"deadline_s": 2.5}, FAST_CONFIG)
        assert config.deadline_s == 2.5
        # Absent field keeps the base value.
        assert config_from_spec({}, FAST_CONFIG).deadline_s is None

    def test_config_spec_rejects_non_numeric_deadline(self):
        with pytest.raises(ValueError, match="deadline_s"):
            config_from_spec({"deadline_s": "soon"}, FAST_CONFIG)
        with pytest.raises(ValueError, match="deadline_s"):
            config_from_spec({"deadline_s": True}, FAST_CONFIG)

    def test_job_spec_carries_deadline(self):
        job = job_from_spec(
            {"modes": 2, "method": "independent",
             "config": {"deadline_s": 3.0}},
            base_config=FAST_CONFIG,
        )
        assert job.config.deadline_s == 3.0

    def test_deadline_does_not_change_the_fingerprint(self):
        # deadline_s is an execution knob: the same job with and without
        # one must dedup onto one cache entry / one service record.
        plain = CompileJob(num_modes=2)
        timed = CompileJob(num_modes=2, config=FAST_CONFIG.with_deadline(5.0))
        assert compile_job_key(plain, FAST_CONFIG) == \
            compile_job_key(timed, FAST_CONFIG)


class TestDegradedOutcome:
    def test_expired_deadline_yields_degraded_status(self):
        job = CompileJob(num_modes=3)
        outcome = run_compile_job(
            job, FAST_CONFIG.with_deadline(1e-6), cache=None, key="k-degraded"
        )
        assert outcome.status == "degraded"
        assert outcome.error is None
        assert outcome.result is not None
        assert outcome.result.degraded
        assert verify_encoding(outcome.result.encoding).valid
        # Degradation is not an infrastructure failure: no retry.
        assert outcome.retryable is False

    def test_normal_job_is_not_degraded(self, tmp_path):
        cache = CompilationCache(tmp_path)
        outcome = run_compile_job(
            CompileJob(num_modes=2), FAST_CONFIG, cache=cache,
            key=compile_job_key(CompileJob(num_modes=2), FAST_CONFIG),
        )
        assert outcome.status == "compiled"
        assert outcome.result.degraded is False


class TestJobRunChaos:
    def test_job_run_fault_is_an_error_outcome(self):
        chaos.configure("job.run=once")
        job = CompileJob(num_modes=1)
        first = run_compile_job(job, FAST_CONFIG, cache=None, key="k-chaos")
        assert first.status == "error"
        assert "chaos fault injected" in first.error
        # ChaosFault is deterministic from the job's perspective: the
        # daemon must not waste attempts on it.
        assert first.retryable is False
        # ``once`` spent: the identical call now succeeds.
        second = run_compile_job(job, FAST_CONFIG, cache=None, key="k-chaos")
        assert second.status == "compiled"

    def test_label_scoped_rule_fails_only_matching_labels(self, arm_chaos):
        arm_chaos("job.run@drill=always")
        job = CompileJob(num_modes=1, label="chaos-drill")
        outcome = run_compile_job(job, FAST_CONFIG, cache=None, key="k-drill")
        assert outcome.status == "error"
        assert "chaos fault injected" in outcome.error
        assert "job.run@drill" in outcome.error
        clean = CompileJob(num_modes=1, label="healthy")
        assert run_compile_job(
            clean, FAST_CONFIG, cache=None, key="k-clean"
        ).status == "compiled"

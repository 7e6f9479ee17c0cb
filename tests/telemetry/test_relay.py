"""Cross-process relay: worker telemetry arrives in the parent exactly once.

``ProcessBatchExecutor`` children ship a full ``compile`` span tree and
their metric deltas home with each job; these tests pin the exactly-once
contract for both.
"""

from repro.parallel.executor import ProcessBatchExecutor
from repro.store import CompileJob
from repro.telemetry import Telemetry


class TestExecutorRelay:
    def test_child_compile_spans_arrive_exactly_once_per_job(self):
        telemetry = Telemetry()
        executor = ProcessBatchExecutor(jobs=2, telemetry=telemetry)
        jobs = [
            ("k1", CompileJob(method="independent", num_modes=2, label="a")),
            ("k2", CompileJob(method="independent", num_modes=3, label="b")),
        ]
        outcomes = executor.run(jobs)
        assert all(o.status == "compiled" for o in outcomes.values())

        compiles = [event for event in telemetry.tracer.events()
                    if event["name"] == "compile"]
        # One compile span per job, each tagged with the job it came from.
        assert sorted(e["attrs"]["job"] for e in compiles) == ["a", "b"]

        span_ids = [e["span_id"] for e in telemetry.tracer.events()]
        assert len(span_ids) == len(set(span_ids))

        # The raw relay payload stays on the outcome (the service stores
        # it as the per-job trace) — absorbing it did not consume it.
        for outcome in outcomes.values():
            assert outcome.telemetry and outcome.telemetry["events"]

        text = telemetry.render_metrics()
        assert "repro_solver_conflicts_total" in text
        assert "repro_preprocess_runs_total" in text

    def test_worker_metrics_merge_into_the_parent(self):
        telemetry = Telemetry()
        executor = ProcessBatchExecutor(jobs=2, telemetry=telemetry)
        jobs = [
            ("k3", CompileJob(method="independent", num_modes=3, label="c")),
            ("k4", CompileJob(method="independent", num_modes=4, label="d")),
        ]
        outcomes = executor.run(jobs)
        assert all(o.status == "compiled" for o in outcomes.values())
        # Exactly once: the parent's counter is the sum of the conflicts
        # each job's descent reports, neither dropped nor double-merged.
        conflicts = sum(o.result.descent.total_conflicts
                        for o in outcomes.values())
        assert conflicts > 0
        family = dict(telemetry.metrics.families())[
            "repro_solver_conflicts_total"]
        assert int(dict(family.children())[()].value) == conflicts

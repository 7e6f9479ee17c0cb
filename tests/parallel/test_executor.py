"""Process-pool batch executor: isolation, front-door hits, events, identity."""

import pytest

from repro.core.config import FermihedralConfig
from repro.parallel.events import (
    BatchFinished,
    BatchStarted,
    JobFinished,
    JobStarted,
    event_to_dict,
    format_event,
)
from repro.parallel.executor import ProcessBatchExecutor
from repro.store import BatchCompiler, CompilationCache, CompileJob, cache_counts
from repro.telemetry import Telemetry


def _job(modes: int, label: str | None = None, **kwargs) -> CompileJob:
    return CompileJob(method="independent", num_modes=modes, label=label, **kwargs)


#: A job that fingerprints fine in the parent but explodes inside the
#: worker: the qubit_weights length contradicts the mode count, which
#: only ``descend`` checks.
def _poison_job(label: str = "poison") -> CompileJob:
    return _job(2, label=label, config=FermihedralConfig(qubit_weights=(1, 1, 1)))


class TestExecutor:
    def test_runs_unique_jobs(self):
        executor = ProcessBatchExecutor(jobs=2)
        outcomes = executor.run([("k1", _job(2, "a")), ("k2", _job(3, "b"))])
        assert set(outcomes) == {"k1", "k2"}
        assert outcomes["k1"].status == "compiled"
        assert outcomes["k1"].result.weight == 6
        assert outcomes["k2"].result.weight == 11

    def test_failure_is_isolated_per_job(self):
        executor = ProcessBatchExecutor(jobs=2)
        outcomes = executor.run([
            ("good", _job(2, "good")),
            ("bad", _poison_job()),
            ("also-good", _job(3, "also-good")),
        ])
        assert outcomes["bad"].status == "error"
        assert "qubit_weights" in outcomes["bad"].error
        assert outcomes["bad"].result is None
        assert outcomes["good"].status == "compiled"
        assert outcomes["also-good"].status == "compiled"

    def test_parent_fast_path_skips_dispatch(self, tmp_path, monkeypatch):
        cache = CompilationCache(tmp_path)
        job = _job(2, "warm")
        first = BatchCompiler(cache=cache, jobs=2).compile([job])
        assert first.outcomes[0].status == "compiled"

        # Once the entry is final, the batch front door must answer it
        # without creating any worker process.
        import repro.parallel.executor as executor_module

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("worker pool should not be created on a full hit")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", forbid)
        telemetry = Telemetry()
        second = BatchCompiler(cache=CompilationCache(tmp_path), jobs=2,
                               telemetry=telemetry).compile([job])
        assert second.outcomes[0].status == "cache-hit"
        assert second.outcomes[0].result.weight == 6
        assert cache_counts(telemetry)["hits"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_front_door_hits_keep_unique_job_indexes(self, tmp_path, jobs):
        cache = CompilationCache(tmp_path)
        BatchCompiler(cache=cache).compile([_job(2, "warm")])
        events = []
        report = BatchCompiler(cache=cache, jobs=jobs,
                               on_event=events.append).compile(
            [_job(2, "warm"), _job(3, "fresh")]
        )
        assert [o.status for o in report.outcomes] == ["cache-hit", "compiled"]
        finished = {e.label: (e.index, e.total) for e in events
                    if isinstance(e, JobFinished)}
        started = {e.label: (e.index, e.total) for e in events
                   if isinstance(e, JobStarted)}
        assert finished == started == {"warm": (0, 2), "fresh": (1, 2)}

    def test_executor_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ProcessBatchExecutor(jobs=0)


class TestBatchCompilerProcessPath:
    def test_jobs_1_and_4_identical_results(self):
        jobs = [_job(2, "a"), _job(2, "a-dup"), _job(3, "b")]
        serial = BatchCompiler(jobs=1).compile(jobs)
        parallel = BatchCompiler(jobs=4).compile(jobs)
        assert [o.status for o in serial.outcomes] == [
            o.status for o in parallel.outcomes
        ]
        assert [(o.result.weight, o.result.proved_optimal)
                for o in serial.outcomes] == [
            (o.result.weight, o.result.proved_optimal)
            for o in parallel.outcomes
        ]

    def test_dedup_before_dispatch(self):
        events = []
        jobs = [_job(2, "a"), _job(2, "b"), _job(2, "c")]
        report = BatchCompiler(jobs=2, on_event=events.append).compile(jobs)
        started = [e for e in events if isinstance(e, BatchStarted)]
        assert started[0].total == 3 and started[0].unique == 1
        assert report.counts == {"compiled": 1, "deduplicated": 2}

    def test_event_stream_shape(self):
        events = []
        report = BatchCompiler(jobs=2, on_event=events.append).compile(
            [_job(2, "a"), _job(3, "b"), _poison_job()]
        )
        assert isinstance(events[0], BatchStarted)
        assert isinstance(events[-1], BatchFinished)
        for index in range(3):
            starts = [e for e in events
                      if isinstance(e, JobStarted) and e.index == index]
            ends = [e for e in events
                    if isinstance(e, JobFinished) and e.index == index]
            assert len(starts) == 1 and len(ends) == 1
            assert events.index(starts[0]) < events.index(ends[0])
        error_events = [e for e in events
                        if isinstance(e, JobFinished) and e.status == "error"]
        assert len(error_events) == 1 and "qubit_weights" in error_events[0].error
        assert not report.ok

    def test_serial_path_emits_the_same_events(self):
        events = []
        BatchCompiler(jobs=1, on_event=events.append).compile([_job(2, "a")])
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["BatchStarted", "JobStarted", "JobFinished",
                         "BatchFinished"]

    def test_process_path_persists_to_shared_cache(self, tmp_path):
        cache = CompilationCache(tmp_path)
        report = BatchCompiler(cache=cache, jobs=2).compile(
            [_job(2, "a"), _job(3, "b")]
        )
        assert report.ok
        assert len(cache) == 2
        rerun = BatchCompiler(cache=CompilationCache(tmp_path), jobs=2).compile(
            [_job(2, "a"), _job(3, "b")]
        )
        assert [o.status for o in rerun.outcomes] == ["cache-hit", "cache-hit"]

    @pytest.mark.parametrize("extra, workers", [([], 0), ([_job(4, "c")], 1)],
                             ids=["all-hits", "one-miss"])
    def test_batch_started_counts_only_the_workers_that_start(
            self, tmp_path, extra, workers):
        jobs = [_job(2, "a"), _job(3, "b")]
        BatchCompiler(cache=CompilationCache(tmp_path), jobs=2).compile(jobs)
        events = []
        BatchCompiler(cache=CompilationCache(tmp_path), jobs=2,
                      on_event=events.append).compile(jobs + extra)
        # Front-door hits start no worker, and BatchStarted still leads.
        assert isinstance(events[0], BatchStarted)
        assert events[0].workers == workers
        hits = [e for e in events
                if isinstance(e, JobFinished) and e.status == "cache-hit"]
        assert len(hits) == 2


class TestInProcessEngine:
    def test_failed_job_forensics_hold_only_its_own_work(self):
        report = BatchCompiler(jobs=1, telemetry=Telemetry()).compile(
            [_job(4, "healthy"), _poison_job()]
        )
        healthy, poison = report.outcomes
        assert healthy.status == "compiled" and poison.status == "error"
        dump = poison.forensics
        # Nothing of the healthy job: none of its spans are open, and no
        # breadcrumb or bus event names its key.
        assert dump["open_spans"] == []
        assert dump["events"]
        assert {event.get("job") for event in dump["events"]} == {poison.key}

    def test_jobs_1_and_2_give_the_same_outcomes_and_telemetry(self):
        jobs = [_job(2, "a"), _job(3, "b"), _poison_job()]
        runs = []
        for engine in (1, 2):
            telemetry, events = Telemetry(), []
            report = BatchCompiler(
                jobs=engine, telemetry=telemetry, on_event=events.append
            ).compile(jobs)
            per_job = {
                index: [type(e).__name__ for e in events
                        if getattr(e, "index", None) == index]
                for index in range(len(jobs))
            }
            compile_tags = sorted(
                event["attrs"]["job"] for event in telemetry.tracer.events()
                if event["name"] == "compile"
            )
            for outcome in report.outcomes:
                assert outcome.telemetry["events"]
            runs.append((
                [o.status for o in report.outcomes],
                [o.result and o.result.weight for o in report.outcomes],
                per_job,
                compile_tags,
                [sorted({e["name"] for e in o.telemetry["events"]})
                 for o in report.outcomes],
            ))
        serial, parallel = runs
        assert serial == parallel
        assert serial[0] == ["compiled", "compiled", "error"]
        assert serial[1] == [6, 11, None]
        assert serial[3] == ["a", "b", "poison"]


class TestEvents:
    def test_format_event_lines(self):
        start = BatchStarted(total=3, unique=2, deduplicated=1, workers=4)
        assert "3 jobs" in format_event(start)
        job_started = JobStarted(0, 2, "h2", "abc")
        assert format_event(job_started).startswith("[1/2] h2")
        done = JobFinished(1, 2, "h2", "abc", "compiled", 1.5, weight=12)
        assert "weight 12" in format_event(done)
        failed = JobFinished(1, 2, "h2", "abc", "error", 0.1, error="Boom")
        assert "Boom" in format_event(failed)
        finished = BatchFinished(total=2, elapsed_s=2.0, counts={"compiled": 2})
        assert "2 compiled" in format_event(finished)
        with pytest.raises(TypeError):
            format_event("not an event")

    def test_event_to_dict(self):
        event = JobStarted(0, 1, "x", "k")
        data = event_to_dict(event)
        assert data["kind"] == "JobStarted" and data["label"] == "x"

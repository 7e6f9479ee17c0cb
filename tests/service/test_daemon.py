"""CompilationService queue semantics: dedup, isolation, backpressure, drain.

Runner-injected tests pin down the queue's contract deterministically
(exact compile counts, controlled failures, gated timing); the
real-compile tests at the bottom drive the default engines end to end.
"""

import threading

import pytest

from repro.core import FermihedralCompiler
from repro.service import (
    CompilationService,
    QueueFullError,
    ServiceUnavailableError,
)
from repro.store import CompilationCache
from tests.service.helpers import compiled_outcome


def _spec(modes=2, **extra):
    return {"modes": modes, "method": "independent", **extra}


class _RecordingRunner:
    """A drain engine that counts batches and can block or fail on demand."""

    def __init__(self, gate: threading.Event | None = None,
                 fail_keys=(), raise_error: Exception | None = None):
        self.gate = gate
        self.fail_keys = set(fail_keys)
        self.raise_error = raise_error
        self.batches = []
        self.started = threading.Event()

    @property
    def compiled_keys(self):
        return [key for batch in self.batches for key, _ in batch]

    def __call__(self, batch):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(30.0), "test gate never released"
        if self.raise_error is not None:
            raise self.raise_error
        self.batches.append(batch)
        return {
            key: compiled_outcome(
                key, job,
                status="error" if key in self.fail_keys else "compiled",
                error="BoomError: induced" if key in self.fail_keys else None,
            )
            for key, job in batch
        }


def _service(runner, **kwargs) -> CompilationService:
    service = CompilationService(runner=runner, **kwargs)
    service.start()
    return service


class TestDeduplication:
    def test_duplicates_compile_exactly_once(self):
        gate = threading.Event()
        runner = _RecordingRunner(gate=gate)
        service = _service(runner)
        first, dedup_first = service.submit(_spec())
        assert not dedup_first and first.status == "queued"
        assert runner.started.wait(10.0)

        # While the job runs, concurrent duplicate submissions collapse.
        records = []
        def submit():
            records.append(service.submit(_spec()))
        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(dedup for _, dedup in records)
        assert all(record.id == first.id for record, _ in records)

        gate.set()
        record = service.wait_for(first.id, timeout=10.0)
        assert record.status == "done"
        assert record.submissions == 9
        # Exactly one compilation for the whole burst.
        assert runner.compiled_keys == [first.id]

        # And resubmitting after completion still does not recompile.
        again, dedup = service.submit(_spec())
        assert dedup and again.status == "done"
        assert runner.compiled_keys == [first.id]
        service.shutdown(wait=True)

    def test_distinct_jobs_not_collapsed(self):
        runner = _RecordingRunner()
        service = _service(runner)
        a, _ = service.submit(_spec(2))
        b, _ = service.submit(_spec(3))
        assert a.id != b.id
        service.wait_for(a.id, timeout=10.0)
        service.wait_for(b.id, timeout=10.0)
        assert sorted(runner.compiled_keys) == sorted([a.id, b.id])
        service.shutdown(wait=True)


class TestFailureIsolation:
    def test_one_bad_job_fails_alone(self):
        # Submit both before starting the dispatcher so they land in one
        # batch deterministically.
        runner = _RecordingRunner()
        service = CompilationService(runner=runner)
        good, _ = service.submit(_spec(2))
        bad, _ = service.submit(_spec(3))
        runner.fail_keys.add(bad.id)
        service.start()
        assert service.wait_for(good.id, timeout=10.0).status == "done"
        failed = service.wait_for(bad.id, timeout=10.0)
        assert failed.status == "failed"
        assert "BoomError" in failed.error
        assert service.stats.completed == 1 and service.stats.failed == 1
        service.shutdown(wait=True)

    def test_runner_crash_fails_only_its_batch(self):
        runner = _RecordingRunner(raise_error=RuntimeError("pool exploded"))
        service = _service(runner)
        record, _ = service.submit(_spec())
        failed = service.wait_for(record.id, timeout=10.0)
        assert failed.status == "failed"
        assert "worker pool failure" in failed.error
        assert "pool exploded" in failed.error

        # The dispatcher survives: heal the runner, resubmit, succeed.
        runner.raise_error = None
        retried, dedup = service.submit(_spec())
        assert not dedup  # failed keys requeue a fresh attempt
        assert retried.attempt == record.attempt + 1
        assert service.wait_for(retried.id, timeout=10.0).status == "done"
        service.shutdown(wait=True)


class TestScheduling:
    def test_slow_job_does_not_block_later_jobs(self):
        """No head-of-line blocking: with a free worker slot, a job
        submitted behind a stuck one finishes first."""
        gate = threading.Event()

        def runner(batch):
            (key, job), = batch
            if job.modes == 2:  # the slow job
                assert gate.wait(30.0), "test gate never released"
            return {key: compiled_outcome(key, job)}

        service = CompilationService(runner=runner, jobs=2).start()
        slow, _ = service.submit(_spec(2))
        fast, _ = service.submit(_spec(3))
        assert service.wait_for(fast.id, timeout=10.0).status == "done"
        assert service.get(slow.id).status == "running"
        gate.set()
        assert service.wait_for(slow.id, timeout=10.0).status == "done"
        service.shutdown(wait=True)

    def test_worker_slots_bound_concurrency(self):
        """Only `jobs` jobs run at once; the rest stay queued."""
        gate = threading.Event()
        runner = _RecordingRunner(gate=gate)
        service = _service(runner, jobs=1)
        first, _ = service.submit(_spec(2))
        assert runner.started.wait(10.0)
        second, _ = service.submit(_spec(3))
        assert service.get(second.id).status == "queued"
        gate.set()
        assert service.wait_for(second.id, timeout=10.0).status == "done"
        service.shutdown(wait=True)


class TestRegistryEviction:
    def test_finished_records_evicted_beyond_cap(self):
        runner = _RecordingRunner()
        service = _service(runner, max_records=2)
        first, _ = service.submit(_spec(2))
        service.wait_for(first.id, timeout=10.0)
        second, _ = service.submit(_spec(3))
        service.wait_for(second.id, timeout=10.0)
        third, _ = service.submit(_spec(4))
        service.wait_for(third.id, timeout=10.0)
        assert service.get(first.id) is None  # oldest finished evicted
        assert [record.id for record in service.records()] == [
            second.id, third.id,
        ]
        assert service.stats.evicted == 1
        service.shutdown(wait=True)

    def test_active_records_never_evicted(self):
        gate = threading.Event()

        def runner(batch):
            (key, job), = batch
            if job.modes == 2:  # the long-running job
                assert gate.wait(30.0), "test gate never released"
            return {key: compiled_outcome(key, job)}

        service = CompilationService(runner=runner, jobs=2,
                                     max_records=1).start()
        active, _ = service.submit(_spec(2))   # stuck on the gate
        for modes in (3, 4):
            record, _ = service.submit(_spec(modes))
            service.wait_for(record.id, timeout=10.0)
        # Eviction ran (two finished records against a cap of one) but
        # must have skipped the oldest record, which is still active.
        assert service.stats.evicted >= 1
        assert service.get(active.id).status in ("queued", "running")
        gate.set()
        assert service.wait_for(active.id, timeout=10.0).status == "done"
        service.shutdown(wait=True)

    def test_resubmitted_evicted_job_is_one_record(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")

        def runner(batch):
            outcomes = {key: compiled_outcome(key, job) for key, job in batch}
            for key, outcome in outcomes.items():
                cache.put(key, outcome.result)
            return outcomes

        service = _service(runner, cache=cache, max_records=2)
        first, _ = service.submit(_spec(2))
        for record in (first, service.submit(_spec(3))[0],
                       service.submit(_spec(4))[0]):
            service.wait_for(record.id, timeout=10.0)
        assert service.get(first.id) is None  # evicted, still cached

        again, deduplicated = service.submit(_spec(2))
        assert not deduplicated and again.outcome == "cache-hit"
        assert [r.id for r in service.records()].count(first.id) == 1
        assert [w["id"] for w in service.jobs_wire()].count(first.id) == 1
        prefix = first.id[:10]
        assert service.lookup_wire(prefix)["id"] == first.id
        assert service.progress_wire(prefix)["id"] == first.id
        service.shutdown(wait=True)


class TestBackpressure:
    def test_queue_limit_rejects_with_429(self):
        gate = threading.Event()
        runner = _RecordingRunner(gate=gate)
        service = _service(runner, queue_limit=2)
        first, _ = service.submit(_spec(2))
        assert runner.started.wait(10.0)  # first job occupies a worker
        service.submit(_spec(3))          # second sits in the queue
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(_spec(4))
        assert excinfo.value.http_status == 429
        assert service.stats.rejected == 1

        # Duplicates of active jobs are NOT new load: still accepted.
        _, dedup = service.submit(_spec(2))
        assert dedup
        gate.set()
        service.shutdown(wait=True)
        assert service.stats.rejected == 1


class TestShutdown:
    def test_drain_finishes_accepted_jobs(self):
        runner = _RecordingRunner()
        service = _service(runner)
        record, _ = service.submit(_spec())
        service.shutdown(drain=True, wait=True, timeout=10.0)
        assert service.state == "stopped"
        assert service.get(record.id).status == "done"
        with pytest.raises(ServiceUnavailableError) as excinfo:
            service.submit(_spec(3))
        assert excinfo.value.http_status == 503

    def test_no_drain_cancels_queued_jobs(self):
        gate = threading.Event()
        runner = _RecordingRunner(gate=gate)
        service = _service(runner)
        running, _ = service.submit(_spec(2))
        assert runner.started.wait(10.0)
        queued, _ = service.submit(_spec(3))  # dispatcher is busy: stays queued
        service.shutdown(drain=False)
        cancelled = service.get(queued.id)
        assert cancelled.status == "failed"
        assert "cancelled" in cancelled.error
        gate.set()
        service.join(timeout=10.0)
        # The job already on a worker still ran to completion.
        assert service.get(running.id).status == "done"
        assert service.stats.cancelled == 1


class TestRealCompilation:
    """The default in-thread engine against real SAT descents."""

    def test_compile_cache_hit_and_dedup(self, tmp_path, fast_config):
        cache = CompilationCache(tmp_path / "cache")
        service = CompilationService(
            cache=cache, default_config=fast_config, use_processes=False
        ).start()
        record, _ = service.submit(_spec(2))
        done = service.wait_for(record.id, timeout=60.0)
        assert done.status == "done" and done.outcome == "compiled"
        assert done.result.weight == 6 and done.result.proved_optimal
        service.shutdown(wait=True)

        # A fresh service over the same cache answers synchronously.
        rebooted = CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, use_processes=False,
        ).start()
        hit, dedup = rebooted.submit(_spec(2))
        assert not dedup
        assert hit.status == "done" and hit.outcome == "cache-hit"
        assert rebooted.stats.cache_hits == 1
        rebooted.shutdown(wait=True)

    @pytest.mark.parametrize("use_processes", [True, False])
    def test_stats_cache_counts_match_metrics(self, tmp_path, fast_config,
                                              use_processes):
        """One compiled job counts the same on both engines, and /stats
        reports exactly what /metrics does: a miss at submit, a miss in
        the compile, one store."""
        from repro.telemetry import parse_prometheus_text

        service = CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, use_processes=use_processes,
        ).start()
        record, _ = service.submit(_spec(2))
        assert service.wait_for(record.id, timeout=60.0).outcome == "compiled"
        service.shutdown(wait=True)

        families = parse_prometheus_text(service.metrics_text())
        requests = {
            labels["outcome"]: value
            for labels, value in families["repro_cache_requests_total"]
            ["samples"]["repro_cache_requests_total"]
        }
        [(_, stores)] = (families["repro_cache_stores_total"]["samples"]
                         ["repro_cache_stores_total"])
        cache = service.stats_wire()["cache"]
        assert requests == {"miss": 2}
        assert cache["misses"] == 2 and cache["hits"] == 0
        assert cache["stores"] == stores == 1
        assert cache["warm_starts"] == cache["corrupted"] == 0

    def test_cache_hit_identical_to_direct_compile(self, tmp_path, fast_config):
        """A polled cache-hit equals FermihedralCompiler.compile() exactly."""
        import json

        from repro.encodings.serialization import result_to_dict

        cache = CompilationCache(tmp_path / "cache")
        direct = FermihedralCompiler(2, fast_config, cache=cache).compile(
            method="independent"
        )
        service = CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, use_processes=False,
        ).start()
        record, _ = service.submit(_spec(2))
        assert record.outcome == "cache-hit"
        served = record.to_wire()["result"]
        assert json.dumps(served, sort_keys=True) == json.dumps(
            result_to_dict(direct), sort_keys=True
        )
        service.shutdown(wait=True)

    def test_bad_spec_rejected_before_queueing(self, fast_config):
        service = CompilationService(
            default_config=fast_config, use_processes=False
        ).start()
        with pytest.raises(ValueError):
            service.submit({"modes": 2, "methd": "independent"})  # typo
        with pytest.raises(ValueError):
            service.submit({"model": "nosuch:4"})
        with pytest.raises(ValueError):
            service.submit({"method": "full-sat"})  # no model
        assert service.stats.submitted == 0
        service.shutdown(wait=True)

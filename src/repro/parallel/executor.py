"""Process-pool batch executor.

:class:`ProcessBatchExecutor` runs *unique* compilation jobs across a pool
of worker processes.  Its callers — the batch front-end
(:class:`repro.store.batch.BatchCompiler`) and the service daemon — have
already fingerprinted and deduplicated them, and answered every job whose
cached result is final, so the executor always compiles: each job runs a
cache-enabled :class:`~repro.core.pipeline.FermihedralCompiler` in a
worker against the caller's cache directory, where an unproved entry
still seeds the descent and the result is stored.

Failures are isolated per job: an exception inside a worker comes back as
an ``error`` outcome for that key and the rest of the batch proceeds.  A
hard worker crash (the pool breaking) errors only the jobs that were
still in flight.

Progress is reported through :mod:`repro.parallel.events` callbacks, in
the parent, as futures resolve.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro import chaos
from repro.core.config import FermihedralConfig
from repro.parallel.events import EventCallback, JobFinished, JobStarted
from repro.store.batch import CompileJob, JobOutcome, run_compile_job
from repro.store.cache import CompilationCache


def _compile_in_worker(
    job: CompileJob,
    key: str,
    config: FermihedralConfig,
    cache_root: str | None,
    relay_telemetry: bool = False,
    progress_path: str | None = None,
) -> JobOutcome:
    """Worker-process body: reopen the cache by directory, then run the
    same :func:`repro.store.batch.run_compile_job` the in-process engine
    (:func:`repro.store.batch.run_in_process`) uses, exceptions already
    folded into an ``error`` outcome there.  The outcome travels back to
    the parent by pickle, like any pool return value.

    With ``relay_telemetry`` the job records into a worker-local
    :class:`~repro.telemetry.Telemetry` whose drained contents ride home
    on :attr:`JobOutcome.telemetry` — spans, metric deltas and progress
    events cross the process boundary as plain data, and the parent
    merges them exactly once.  ``progress_path`` additionally mirrors the
    job's live progress snapshot into a JSON file the parent can read
    *while the job runs* — the result pipe only speaks at completion."""
    cache = CompilationCache(cache_root) if cache_root else None
    telemetry = None
    if relay_telemetry:
        from repro.telemetry import FileSnapshotSink, Telemetry

        telemetry = Telemetry()
        if progress_path:
            telemetry.progress.add_sink(FileSnapshotSink(progress_path))
    outcome = run_compile_job(job, config, cache, key, telemetry=telemetry)
    if telemetry is not None:
        outcome.telemetry = telemetry.drain_relay()
    return outcome


class ProcessBatchExecutor:
    """Fan unique ``(key, job)`` pairs across worker processes.

    Args:
        jobs: worker-process count (must be >= 1; ``1`` still uses a
            single-process pool, which keeps the execution path uniform).
        cache: shared compilation cache; only its directory is used,
            shipped to the workers, which reopen it there.
        default_config: config for jobs that carry none.
        on_event: :mod:`repro.parallel.events` callback.
        telemetry: a :class:`repro.telemetry.Telemetry` handle.  Worker
            processes then record into their own handle and the executor
            absorbs each job's relay payload (spans tagged with the job
            label, metric deltas merged additively) into this one as the
            outcome arrives.  The raw payload stays on
            :attr:`~repro.store.batch.JobOutcome.telemetry` of the outcome
            :meth:`run` returns, for per-job trace storage.
        progress_dir: directory for per-job live progress snapshot files
            (one ``<key>.json`` per in-flight job, atomically replaced
            by the worker, removed by the parent when the job resolves).
            Only meaningful with ``telemetry``; the service daemon reads
            these for ``GET /jobs/<id>/progress`` on running jobs.

    By default every :meth:`run` call creates and tears down its own
    pool — the right shape for a one-shot batch.  Long-lived callers
    (the service daemon drains its queue through one executor for its
    whole lifetime) use the executor as a context manager instead::

        with ProcessBatchExecutor(jobs=4, cache=cache) as executor:
            executor.run(first_batch)
            executor.run(second_batch)   # same worker processes

    which keeps one persistent pool across ``run`` calls.  A pool broken
    by a hard worker crash is replaced on the next ``run``, so one
    crashed job never poisons the executor for the batches after it.
    On a persistent pool, concurrent ``run`` calls from different
    threads are safe — the service daemon issues one ``run`` per job
    slot so a slow job never blocks the others' dispatch.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache: CompilationCache | None = None,
        default_config: FermihedralConfig | None = None,
        on_event: EventCallback | None = None,
        telemetry=None,
        progress_dir: str | None = None,
    ):
        if jobs < 1:
            raise ValueError("executor needs at least one worker process")
        self.jobs = jobs
        self.cache = cache
        self.default_config = default_config or FermihedralConfig()
        self.on_event = on_event
        self.telemetry = telemetry
        self.progress_dir = progress_dir
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        #: Serializes broken-pool replacement: concurrent run() calls on
        #: one persistent pool (the service dispatches one run per job)
        #: must not both swap the pool in.
        self._pool_guard = threading.Lock()

    # -- persistent-pool lifecycle --------------------------------------------

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        # fork shares the already-imported interpreter image with the
        # workers; where unavailable (non-POSIX), the default start
        # method still works, just with a slower cold start.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)

    def __enter__(self) -> "ProcessBatchExecutor":
        with self._pool_guard:
            self._pool = self._make_pool(self.jobs)
            self._pool_broken = False
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the persistent pool down (no-op outside a ``with`` block)."""
        with self._pool_guard:
            pool, self._pool = self._pool, None
        if pool is not None:
            # shutdown() waits for in-flight futures; do it outside the
            # guard so a concurrent run() marking the pool broken is
            # never blocked behind the drain.
            pool.shutdown()

    def _emit(self, event) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _job_config(self, job: CompileJob) -> FermihedralConfig:
        return job.config or self.default_config

    def progress_path(self, key: str) -> str | None:
        """The live snapshot file the worker for ``key`` mirrors into
        (``None`` when progress mirroring is off)."""
        if self.progress_dir is None or self.telemetry is None:
            return None
        return str(Path(self.progress_dir) / f"{key}.json")

    def run(self, work: list[tuple[str, CompileJob]]) -> dict[str, JobOutcome]:
        """Execute unique jobs; returns outcomes by fingerprint key.

        ``work`` must already be deduplicated (one entry per key); the
        executor asserts nothing about ordering and reports completion in
        whatever order workers finish.
        """
        outcomes: dict[str, JobOutcome] = {}
        if not work:
            return outcomes
        if self._pool is not None:
            with self._pool_guard:
                if self._pool_broken:
                    # Replace a pool a previous run's hard crash broke.
                    self._pool.shutdown()
                    self._pool = self._make_pool(self.jobs)
                    self._pool_broken = False
                pool = self._pool
            self._dispatch(pool, work, outcomes)
        else:
            with self._make_pool(min(self.jobs, len(work))) as pool:
                self._dispatch(pool, work, outcomes)
        return outcomes

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        work: list[tuple[str, CompileJob]],
        outcomes: dict[str, JobOutcome],
    ) -> None:
        """Run the jobs on ``pool``, folding every failure — a job
        exception, an unpicklable result, the pool itself breaking — into
        per-key ``error`` outcomes."""
        cache_root = None if self.cache is None else str(Path(self.cache.root))
        total = len(work)
        futures = {}
        for index, (key, job) in enumerate(work):
            self._emit(JobStarted(index, total, job.display, key))
            try:
                chaos.inject("worker.spawn", telemetry=self.telemetry)
                future = pool.submit(
                    _compile_in_worker, job, key, self._job_config(job), cache_root,
                    self.telemetry is not None,
                    self.progress_path(key),
                )
            except Exception as crash:  # pool already broken / shut down
                with self._pool_guard:
                    self._pool_broken = True
                outcome = JobOutcome(
                    job=job,
                    key=key,
                    status="error",
                    error=f"{type(crash).__name__}: {crash}",
                    # Spawn failures are infrastructure, not the job: the
                    # next attempt gets a fresh pool.
                    retryable=True,
                )
                outcomes[key] = outcome
                self._emit(JobFinished(
                    index, total, job.display, key, outcome.status, 0.0,
                    error=outcome.error,
                ))
                continue
            futures[future] = (index, key, job)

        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                index, key, job = futures[future]
                try:
                    outcome = future.result()
                except Exception as crash:  # pool broke / unpicklable result
                    if isinstance(crash, BrokenProcessPool):
                        with self._pool_guard:
                            self._pool_broken = True
                    outcome = JobOutcome(
                        job=job,
                        key=key,
                        status="error",
                        error=f"{type(crash).__name__}: {crash}",
                        # A killed worker (broken pool) is worth retrying —
                        # the replacement pool plus the descent checkpoint
                        # make the next attempt cheap.  An unpicklable
                        # result is deterministic; retrying repeats it.
                        retryable=isinstance(crash, BrokenProcessPool),
                    )
                if self.telemetry is not None and outcome.telemetry:
                    # Merge the worker's spans and metric deltas into the
                    # parent handle exactly once; the raw payload stays on
                    # the outcome for per-job trace consumers (the service
                    # daemon's /debug/trace endpoint).
                    self.telemetry.absorb_relay(
                        outcome.telemetry, extra={"job": job.display}
                    )
                snapshot_path = self.progress_path(key)
                if snapshot_path is not None:
                    # The job is over; the relay above carried its final
                    # progress events, so the live file is now stale.
                    try:
                        os.unlink(snapshot_path)
                    except OSError:
                        pass
                outcomes[key] = outcome
                self._emit(JobFinished(
                    index, total, job.display, key, outcome.status,
                    outcome.elapsed_s,
                    weight=None if outcome.result is None
                    else outcome.result.weight,
                    error=outcome.error,
                ))

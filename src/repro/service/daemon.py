"""The compilation service: an async job queue over the batch engine.

:class:`CompilationService` is the long-lived core behind ``repro
serve``.  It accepts plain-data job specs (the grammar of
:func:`repro.store.batch.job_from_spec`), deduplicates them by
fingerprint, answers already-final work synchronously from the
:class:`~repro.store.cache.CompilationCache`, and drains everything else
through one persistent :class:`~repro.parallel.executor
.ProcessBatchExecutor` worker pool, one job per worker slot.

Design points, in the order a submission meets them:

* **Dedup is identity.**  The fingerprint key *is* the job id.  A second
  submission of equivalent work — while the first is queued, running, or
  already done — returns the same record and never compiles twice.
* **Cache hits are synchronous.**  A final cached result turns the
  submission into a ``done`` record before ``POST /jobs`` even returns;
  warm-startable (unproved) entries still go through a worker, which
  seeds its descent from them.  The cache read happens *outside* the
  service lock, so polls and health checks never stall behind disk I/O.
* **Backpressure is explicit.**  At most ``queue_limit`` jobs may be
  active (queued + running); beyond that :meth:`submit` raises
  :class:`QueueFullError`, which the HTTP layer maps to 429.  The paper's
  compile times are minutes-to-hours per UNSAT-proved optimum — an
  unbounded queue would just hide an overload until memory ran out.
* **No head-of-line blocking.**  The dispatcher hands out one job per
  free worker slot the moment both exist; a slow descent occupies its
  slot and nothing else.  Short jobs submitted behind it finish first,
  and their polls say so immediately (each slot thread finalizes its
  record the instant its job's run returns).
* **Failures are isolated.**  A job that blows up inside a worker marks
  only its own record ``failed``; a hard worker crash breaks at most the
  jobs in flight on the broken pool, and the executor replaces that pool
  before the next dispatch.  Resubmitting a failed key requeues a fresh
  attempt.
* **Retryable failures are supervised.**  Outcomes whose error names
  infrastructure rather than the job (a killed worker, a spawn failure —
  :attr:`repro.store.batch.JobOutcome.retryable`) are requeued
  automatically with exponential backoff plus deterministic jitter, up
  to ``max_attempts`` total attempts.  The retried attempt shares the
  failed one's fingerprint, so it warm-starts from the descent
  checkpoint its predecessor left in the cache instead of re-proving
  every bound.  Deterministic failures (a job exception) stay final on
  the first attempt.
* **Memory is bounded.**  Finished records beyond ``max_records`` are
  evicted oldest-first, trace and forensics dump with them (their
  results live in the cache; resubmitting an evicted key is answered as
  a synchronous cache hit), so a long-lived daemon's registry cannot
  grow without bound.
* **One index.**  ``_records`` is the only per-job table, and its dict
  order is first-submission order.  Every per-job read resolves an id
  the same way (:meth:`CompilationService._resolve`: exact id, then a
  unique prefix), so a prefix names the same record on every endpoint.
* **Shutdown drains.**  ``shutdown(drain=True)`` stops intake (503),
  finishes every accepted job, then lets the dispatcher exit;
  ``drain=False`` also cancels the still-queued jobs.  Jobs already on a
  worker always run to completion — SAT processes are not preemptible
  mid-descent.

The service is transport-agnostic: :mod:`repro.service.server` puts the
JSON-over-HTTP face on it, and tests drive this class directly.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.config import METHOD_FULL_SAT, FermihedralConfig
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, JobRecord
from repro.store.batch import (
    CompileJob,
    JobOutcome,
    compile_job_key,
    final_cached_result,
    job_from_spec,
    run_in_process,
)
from repro.store.cache import CompilationCache, cache_counts

#: Default bound on active (queued + running) jobs.
DEFAULT_QUEUE_LIMIT = 64

#: Default bound on finished records kept in memory (the cache holds the
#: results themselves; evicted ids just stop answering ``GET /jobs/<id>``).
DEFAULT_MAX_RECORDS = 4096

#: Default total attempts per job (1 initial + 2 supervised retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Exponential retry backoff saturates here.
_RETRY_BACKOFF_CAP_S = 30.0

#: ``Retry-After`` hints never exceed this (seconds).
_RETRY_AFTER_CAP_S = 300

#: Fraction of ``queue_limit`` above which ``healthz`` reports
#: ``status: degraded`` (still HTTP 200 — a saturation warning, not an
#: outage).
_HEALTH_HIGH_WATER = 0.8

#: Signature of an injectable batch runner (tests use this to count or
#: sabotage compilations deterministically).
BatchRunner = Callable[[list[tuple[str, CompileJob]]], "dict[str, JobOutcome]"]


class ServiceRejection(Exception):
    """A submission the service refused; ``http_status`` picks the code."""

    http_status = 400


class QueueFullError(ServiceRejection):
    """Backpressure: the active-job bound is reached (HTTP 429).

    ``retry_after_s`` is the service's drain-rate estimate of when a slot
    should free up; the HTTP layer forwards it as a ``Retry-After``
    header and the client honors it between retries.
    """

    http_status = 429

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ServiceRejection):
    """The service is draining or stopped and takes no new work (HTTP 503)."""

    http_status = 503


class AmbiguousJobIdError(ServiceRejection):
    """A job-id prefix matched more than one record (HTTP 409)."""

    http_status = 409


@dataclass
class ServiceStats:
    """Monotonic counters over one service lifetime (``GET /stats``)."""

    submitted: int = 0
    accepted: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    evicted: int = 0
    retried: int = 0
    degraded: int = 0


class CompilationService:
    """The queue, registry, and dispatcher behind ``repro serve``.

    Args:
        cache: persistent result store; enables the synchronous cache-hit
            path and worker-side memoization.  ``None`` still
            deduplicates in memory but persists nothing.
        default_config: config for jobs that do not override one.
        jobs: worker-process count of the drain pool (= concurrent jobs).
        queue_limit: bound on active (queued + running) jobs.
        max_records: bound on finished records kept in the registry.
        max_attempts: total attempts per job — 1 means retryable
            failures are final like any other; N > 1 allows N - 1
            supervised retries of infrastructure failures.
        retry_backoff_s: base of the exponential retry backoff (the
            k-th retry waits ``min(30, base * 2**(k-1))`` seconds plus
            a deterministic sub-``base`` jitter derived from the job
            key, so a crashed batch does not thunder back in lockstep).
        default_method / default_device: applied to specs without those
            fields, mirroring ``repro batch``'s CLI defaults.
        use_processes: force the drain engine — ``True`` = the persistent
            process pool, ``False`` = in-process compiles on each slot
            thread (:func:`repro.store.batch.run_in_process`; no
            isolation, but works where ``fork`` does not).  ``None``
            picks processes exactly when ``fork`` is available.
        runner: test seam — replaces the drain engine with a callable
            mapping a batch to outcomes.
        telemetry: a :class:`repro.telemetry.Telemetry` handle.  ``None``
            (the default) creates one — the service is always observable:
            ``GET /metrics`` renders its registry, worker spans relay
            into its tracer, and each finished job's span tree is kept
            (bounded by ``max_records``) for ``GET /debug/trace/<id>``.
    """

    def __init__(
        self,
        cache: CompilationCache | None = None,
        default_config: FermihedralConfig | None = None,
        jobs: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_s: float = 0.5,
        default_method: str = METHOD_FULL_SAT,
        default_device=None,
        use_processes: bool | None = None,
        runner: BatchRunner | None = None,
        telemetry=None,
    ):
        if jobs < 1:
            raise ValueError("service needs at least one worker")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if max_records < 1:
            raise ValueError("max_records must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        self.cache = cache
        self.default_config = default_config or FermihedralConfig()
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.max_records = max_records
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.default_method = default_method
        self.default_device = default_device
        self._runner = runner
        if use_processes is None:
            import multiprocessing

            use_processes = "fork" in multiprocessing.get_all_start_methods()
        self._use_processes = use_processes and runner is None
        self.stats = ServiceStats()
        self.started_at = time.time()

        #: job id -> record, in first-submission order.
        self._records: dict[str, JobRecord] = {}
        #: ``(key, attempt)`` in completion order — the eviction queue.
        self._finished_order: deque[tuple[str, int]] = deque()
        self._queue: deque[str] = deque()
        #: key -> monotonic instant its scheduled retry becomes dispatchable.
        self._retry_ready: dict[str, float] = {}
        #: Solver-side durations of recent finishes — the drain-rate
        #: sample behind the 429 ``Retry-After`` hint.
        self._recent_finished: deque[float] = deque(maxlen=32)
        #: Jobs in queued/running state (kept exact so submit() never
        #: scans the whole registry).
        self._active_count = 0
        #: Worker slots currently occupied by a dispatched job.
        self._active_runs = 0
        self._wake = threading.Condition()
        self._state = "serving"  # serving | draining | stopped
        self._thread: threading.Thread | None = None
        self._executor = None

        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        #: Scratch directory for worker-side live progress snapshot
        #: files; created in :meth:`start` on the process engine.
        self._progress_dir: str | None = None
        self._submit_latency = telemetry.histogram(
            "repro_service_submit_seconds", "submit() latency"
        )
        self._poll_latency = telemetry.histogram(
            "repro_service_poll_seconds", "job lookup latency"
        )
        telemetry.metrics.add_collect_hook(self._collect_gauges)

    def _emit_job_event(self, key: str, state: str, **fields) -> None:
        """One lifecycle event into the progress feed — consumers of
        ``GET /events`` see the full queued → running → done/failed story
        interleaved with the workers' heartbeats on one cursor."""
        self.telemetry.progress.emit("job", job=key, state=state, **fields)

    def _collect_gauges(self) -> None:
        """Scrape-time gauges: queue/slot occupancy and per-state jobs.

        Runs inside ``MetricsRegistry.render()`` so ``GET /metrics``
        always reports the current queue shape, not the shape at the last
        state transition.
        """
        with self._wake:
            depth = len(self._queue)
            active = self._active_runs
            tally: dict[str, int] = {}
            for record in self._records.values():
                tally[record.status] = tally.get(record.status, 0) + 1
        self.telemetry.gauge(
            "repro_service_queue_depth", "jobs waiting for a worker slot"
        ).set(depth)
        self.telemetry.gauge(
            "repro_service_active_slots", "worker slots running a job"
        ).set(active)
        jobs_gauge = self.telemetry.gauge(
            "repro_service_jobs", "registry records per state"
        )
        for state in (QUEUED, RUNNING, DONE, FAILED):
            jobs_gauge.labels(state=state).set(tally.get(state, 0))

    # -- lifecycle ------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def start(self) -> "CompilationService":
        """Spin up the dispatcher (idempotent); returns ``self``."""
        if self._thread is not None:
            return self
        if self._use_processes:
            from repro.parallel.executor import ProcessBatchExecutor

            self._progress_dir = tempfile.mkdtemp(prefix="repro-progress-")
            self._executor = ProcessBatchExecutor(
                jobs=self.jobs,
                cache=self.cache,
                default_config=self.default_config,
                telemetry=self.telemetry,
                progress_dir=self._progress_dir,
            ).__enter__()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-service-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, drain: bool = True, wait: bool = False,
                 timeout: float | None = None) -> None:
        """Stop intake; optionally cancel the queue; optionally block.

        ``drain=True`` lets every queued job run before the dispatcher
        exits; ``drain=False`` cancels queued jobs (their records turn
        ``failed`` with a ``cancelled`` message) but still waits out jobs
        already on a worker.  ``wait=True`` joins the dispatcher.
        """
        with self._wake:
            if self._state == "serving":
                self._state = "draining"
            if not drain:
                # Queued jobs and backoff-pending retries alike: anything
                # not yet on a worker is cancelled.
                pending = list(self._queue) + list(self._retry_ready)
                self._queue.clear()
                self._retry_ready.clear()
                for key in pending:
                    record = self._records[key]
                    self._finish_record(record, JobOutcome(
                        job=record.job, key=key, status="error",
                        error="cancelled: service shut down before the "
                              "job was dispatched",
                    ))
                    self.stats.cancelled += 1
            self._wake.notify_all()
        if wait:
            self.join(timeout)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the dispatcher to finish (after :meth:`shutdown`)."""
        if self._thread is not None:
            self._thread.join(timeout)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: dict) -> tuple[JobRecord, bool]:
        """Accept one job spec; returns ``(record, deduplicated)``.

        Raises:
            ValueError: malformed spec (HTTP 400).
            ServiceUnavailableError: service draining/stopped (HTTP 503).
            QueueFullError: active-job bound reached (HTTP 429).
        """
        started = time.monotonic()
        try:
            return self._submit(spec)
        finally:
            self._submit_latency.observe(time.monotonic() - started)

    def _submit(self, spec: dict) -> tuple[JobRecord, bool]:
        job = job_from_spec(
            spec,
            default_method=self.default_method,
            default_device=self.default_device,
            base_config=self.default_config,
            strict=True,
        )
        key = compile_job_key(job, self.default_config)
        with self._wake:
            existing = self._existing_or_reject(key)
            if existing is not None:
                return existing, True
        # The cache read is real disk I/O — do it without the lock, then
        # re-check the registry: a racing twin may have submitted the
        # same key, or the service may have started draining.
        cached = final_cached_result(self.cache, job, key, self.telemetry)
        with self._wake:
            existing = self._existing_or_reject(key)
            if existing is not None:
                return existing, True
            previous = self._records.get(key)  # a failed attempt, if any
            self.stats.submitted += 1
            if cached is not None:
                record = self._install(key, job, previous)
                self._finish_record(record, JobOutcome(
                    job=job, key=key, status="cache-hit", result=cached,
                ))
                self.stats.cache_hits += 1
                return record, False
            if self._active_count >= self.queue_limit:
                self.stats.rejected += 1
                raise QueueFullError(
                    f"queue full: {self._active_count} active jobs (limit "
                    f"{self.queue_limit}); retry later",
                    retry_after_s=self._retry_after_hint(),
                )
            record = self._install(key, job, previous)
            self._queue.append(key)
            self.stats.accepted += 1
            self._emit_job_event(key, QUEUED, label=job.display)
            self._wake.notify_all()
            return record, False

    def _existing_or_reject(self, key: str) -> JobRecord | None:
        """Under the lock: enforce the intake state, and return the
        record a duplicate submission collapses onto (``None`` when the
        key is new or only failed)."""
        if self._state != "serving":
            self.stats.rejected += 1
            raise ServiceUnavailableError(
                f"service is {self._state}; not accepting jobs"
            )
        record = self._records.get(key)
        if record is not None and record.status != FAILED:
            # Queued, running, or done: the same work, already owned.
            record.submissions += 1
            self.stats.submitted += 1
            self.stats.deduplicated += 1
            return record
        return None

    def _install(self, key: str, job: CompileJob,
                 previous: JobRecord | None) -> JobRecord:
        """Fresh active record for ``key`` (resubmitted failures keep
        their submission tally and bump the attempt generation)."""
        record = JobRecord(
            id=key, job=job, status=QUEUED, submitted_at=time.time()
        )
        if previous is not None:
            record.submissions = previous.submissions + 1
            record.attempt = previous.attempt + 1
            record.trace = previous.trace
            record.forensics = previous.forensics
        self._records[key] = record
        self._active_count += 1
        return record

    def _retry_after_hint(self) -> float:
        """Seconds until a slot plausibly frees up (lock held): the mean
        recent job duration times how many queue "waves" stand between a
        new submission and a free worker.  Deliberately coarse — it is a
        politeness hint for 429 clients, not a promise."""
        recent = [s for s in self._recent_finished if s > 0]
        avg = (sum(recent) / len(recent)) if recent else 10.0
        waves = (self._active_count + self.jobs) // max(self.jobs, 1)
        return float(min(_RETRY_AFTER_CAP_S, max(1, int(round(avg * waves)))))

    # -- dispatch -------------------------------------------------------------

    def _can_dispatch(self) -> bool:
        return bool(self._queue) and self._active_runs < self.jobs

    def _drained(self) -> bool:
        return (self._state != "serving" and not self._queue
                and not self._retry_ready and self._active_runs == 0)

    def _promote_due_retries(self) -> None:
        """Move retry-scheduled jobs whose backoff has elapsed back onto
        the dispatch queue (lock held)."""
        now = time.monotonic()
        for key in [k for k, ready in self._retry_ready.items()
                    if ready <= now]:
            del self._retry_ready[key]
            record = self._records.get(key)
            if record is None or record.status != QUEUED:
                continue  # cancelled or superseded while waiting
            self._queue.append(key)
            self._emit_job_event(
                key, QUEUED, label=record.job.display, retry=record.retries
            )

    def _next_retry_wait(self) -> float | None:
        """Seconds until the earliest scheduled retry is due (lock held);
        ``None`` when nothing is waiting on backoff."""
        if not self._retry_ready:
            return None
        return max(0.0, min(self._retry_ready.values()) - time.monotonic())

    def _drain_loop(self) -> None:
        """Hand one queued job to each free worker slot as both appear.

        Dispatch is per job, not per batch: a slow descent occupies one
        slot while later submissions flow past it into the others.
        """
        while True:
            with self._wake:
                while True:
                    self._promote_due_retries()
                    if self._can_dispatch() or self._drained():
                        break
                    self._wake.wait(self._next_retry_wait())
                if self._drained():
                    self._state = "stopped"
                    self._wake.notify_all()
                    break
                key = self._queue.popleft()
                record = self._records[key]
                record.status = RUNNING
                record.started_at = time.time()
                self._active_runs += 1
                job = record.job
                self._emit_job_event(key, RUNNING, label=job.display)
            threading.Thread(
                target=self._run_one, args=(key, job),
                name="repro-service-run", daemon=True,
            ).start()
        if self._executor is not None:
            self._executor.close()
        if self._progress_dir is not None:
            shutil.rmtree(self._progress_dir, ignore_errors=True)

    def _run_one(self, key: str, job: CompileJob) -> None:
        """One dispatched job, on its own slot thread (the process pool
        underneath bounds actual CPU parallelism to ``jobs``)."""
        try:
            outcomes = self._run_batch([(key, job)])
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = JobOutcome(
                    job=job, key=key, status="error",
                    error="worker returned no outcome for this job",
                )
        except Exception as error:
            outcome = JobOutcome(
                job=job, key=key, status="error",
                error=f"worker pool failure: {type(error).__name__}: {error}",
            )
        self._handle_outcome(outcome)
        with self._wake:
            self._active_runs -= 1
            self._wake.notify_all()

    def _run_batch(self, batch: list[tuple[str, CompileJob]]):
        if self._runner is not None:
            return self._runner(batch)
        if self._executor is not None:
            return self._executor.run(batch)
        return run_in_process(batch, self.default_config, self.cache,
                              telemetry=self.telemetry)

    def _handle_outcome(self, outcome: JobOutcome) -> None:
        """Terminal bookkeeping for one dispatched job, from its slot
        thread: a running record is owned by that thread alone, so its
        outcome arrives exactly once."""
        with self._wake:
            record = self._records[outcome.key]
            if outcome.telemetry and outcome.telemetry.get("events"):
                record.trace = outcome.telemetry["events"]
            if self._should_retry(record, outcome):
                self._schedule_retry(record, outcome)
                return
            if outcome.forensics:
                record.forensics = outcome.forensics
            elif outcome.status == "error":
                # A hard crash (broken pool, killed worker) brings no
                # recorder dump home — synthesize a minimal one so
                # ``GET /jobs/<id>/forensics`` still answers.
                record.forensics = {
                    "captured_at": time.time(),
                    "error": outcome.error,
                    "events": [],
                    "open_spans": [],
                    "metrics": None,
                    "synthesized": True,
                }
            self._finish_record(record, outcome)

    def _should_retry(self, record: JobRecord, outcome: JobOutcome) -> bool:
        """Retry exactly the failures that blame infrastructure (lock
        held): the outcome opted in via ``retryable``, the service is
        still accepting work, and the attempt budget is not spent."""
        return (
            outcome.status == "error"
            and outcome.retryable
            and self._state == "serving"
            and record.retries + 1 < self.max_attempts
        )

    def _schedule_retry(self, record: JobRecord, outcome: JobOutcome) -> None:
        """Requeue a retryably-failed record with backoff (lock held).
        The record stays active (it still occupies queue capacity) and
        its attempt generation is bumped."""
        record.retries += 1
        record.attempt += 1
        record.status = QUEUED
        record.started_at = None
        delay = self._retry_delay(record.id, record.retries)
        self._retry_ready[record.id] = time.monotonic() + delay
        self.stats.retried += 1
        self.telemetry.counter(
            "repro_service_retries_total",
            "supervised retries of retryably-failed jobs",
        ).inc()
        self._emit_job_event(
            record.id, "retrying", label=record.job.display,
            attempt=record.retries + 1, delay_s=round(delay, 3),
            error=outcome.error,
        )
        self._wake.notify_all()

    def _retry_delay(self, key: str, retries: int) -> float:
        """Exponential backoff plus deterministic per-(key, attempt)
        jitter — reproducible in tests, desynchronized in production."""
        base = min(_RETRY_BACKOFF_CAP_S,
                   self.retry_backoff_s * (2 ** (retries - 1)))
        digest = hashlib.sha256(f"{key}:{retries}".encode()).hexdigest()
        jitter = (int(digest[:8], 16) / 0xFFFFFFFF) * self.retry_backoff_s
        return base + jitter

    def _finish_record(self, record: JobRecord, outcome: JobOutcome) -> None:
        """Terminal transition + counters + eviction (lock held)."""
        record.apply_outcome(outcome, finished_at=time.time())
        self._active_count -= 1
        self._retry_ready.pop(record.id, None)
        if outcome.elapsed_s > 0:
            self._recent_finished.append(outcome.elapsed_s)
        if record.status == FAILED:
            self.stats.failed += 1
        else:
            self.stats.completed += 1
            if outcome.status == "degraded":
                self.stats.degraded += 1
                self.telemetry.counter(
                    "repro_service_degraded_total",
                    "jobs that finished degraded (deadline expired "
                    "mid-descent, best-so-far result returned)",
                ).inc()
        self._finished_order.append((record.id, record.attempt))
        self._emit_job_event(
            record.id, record.status, label=record.job.display,
            outcome=outcome.status, error=outcome.error,
            elapsed_s=round(outcome.elapsed_s, 3),
        )
        self._evict_finished()
        self._wake.notify_all()

    def _evict_finished(self) -> None:
        """Drop the *earliest-finished* records beyond ``max_records``
        (lock held).  Completion order, not submission order: the record
        that just finished is always the last eviction candidate, so a
        submitter's next poll can never find its fresh result already
        gone.  Evicted results live on in the cache; their ids simply
        stop resolving, and a resubmission becomes a cache hit."""
        excess = (len(self._records) - self._active_count) - self.max_records
        while excess > 0 and self._finished_order:
            key, attempt = self._finished_order.popleft()
            record = self._records.get(key)
            if record is None or not record.finished \
                    or record.attempt != attempt:
                continue  # stale entry: already evicted or requeued since
            del self._records[key]
            self.telemetry.progress.forget(key)
            self.stats.evicted += 1
            excess -= 1

    # -- introspection --------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._wake:
            return self._records.get(job_id)

    def _resolve(self, job_id: str) -> JobRecord | None:
        """The record named by an exact id or a unique id prefix (lock
        held); ``None`` when nothing matches.  Raises
        :class:`AmbiguousJobIdError` when a prefix matches several."""
        record = self._records.get(job_id)
        if record is not None or not job_id:
            return record
        matches = [key for key in self._records if key.startswith(job_id)]
        if len(matches) > 1:
            raise AmbiguousJobIdError(
                f"job id prefix {job_id!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        return self._records[matches[0]] if matches else None

    def records(self) -> list[JobRecord]:
        """All records, in first-submission order."""
        with self._wake:
            return list(self._records.values())

    def jobs_wire(self) -> list[dict]:
        """Summaries of every record, in first-submission order."""
        with self._wake:
            return [record.to_wire(include_result=False)
                    for record in self._records.values()]

    def record_wire(self, record: JobRecord, include_result: bool = True) -> dict:
        """A record's wire form, serialized under the service lock so a
        concurrent terminal transition can never produce a half-updated
        view (``status: done`` with no result)."""
        with self._wake:
            return record.to_wire(include_result)

    def lookup_wire(self, job_id: str,
                    include_result: bool = True) -> dict | None:
        """Wire form by exact id or unique prefix (``None`` when absent).

        Records evicted from the in-memory registry still answer: job ids
        are cache keys, so an id that no longer resolves in the registry
        is re-answered from the persistent cache (``"source": "cache"``
        marks such synthesized records).  Raises
        :class:`AmbiguousJobIdError` when a prefix matches more than one
        record or cache entry.
        """
        started = time.monotonic()
        try:
            with self._wake:
                record = self._resolve(job_id)
                if record is not None:
                    return record.to_wire(include_result)
            return self._cache_wire(job_id, include_result)
        finally:
            self._poll_latency.observe(time.monotonic() - started)

    def _cache_wire(self, job_id: str, include_result: bool) -> dict | None:
        """Synthesize a ``done`` record for an evicted-but-cached job id.

        The registry bounds its memory by evicting finished records, but
        their results (and the ids themselves — fingerprint keys) live on
        in the cache; a poll for such an id deserves the result, not a
        404.  Runs outside the service lock: this is disk I/O.
        """
        if self.cache is None or not job_id:
            return None
        infos = [
            info for info in self.cache.find(job_id) if not info.corrupted
        ]
        if len(infos) > 1:
            raise AmbiguousJobIdError(
                f"job id prefix {job_id!r} is ambiguous "
                f"({len(infos)} cache entries)"
            )
        if not infos:
            return None
        info = infos[0]
        wire = {
            "id": info.key,
            "status": DONE,
            "label": None,
            "method": info.method,
            "modes": info.num_modes,
            "device": None,
            "seed": None,
            "outcome": "cache-hit",
            "error": None,
            "cache_error": None,
            "submissions": 0,
            "submitted_at": None,
            "started_at": None,
            "finished_at": info.created_at,
            "elapsed_s": 0.0,
            "weight": info.weight,
            "proved_optimal": info.proved_optimal,
            "retries": 0,
            "degraded": False,
            "source": "cache",
        }
        if include_result:
            result = self.cache.get(info.key, telemetry=self.telemetry)
            if result is None:
                return None  # corrupted or vanished between find and get
            from repro.encodings.serialization import result_to_dict

            wire["result"] = result_to_dict(result)
            wire["device"] = result.device
        return wire

    def metrics_text(self) -> str:
        """The registry in Prometheus text form (``GET /metrics``)."""
        return self.telemetry.render_metrics()

    def trace_wire(self, job_id: str) -> dict | None:
        """A finished job's relayed span events, by exact id or unique
        prefix (``None`` when no record or no trace)."""
        with self._wake:
            record = self._resolve(job_id)
            if record is None or record.trace is None:
                return None
            return {"id": record.id, "events": list(record.trace)}

    def progress_wire(self, job_id: str) -> dict | None:
        """A job's live progress snapshot, by exact id or unique prefix.

        For a *running* process-engine job, the bus snapshot (lifecycle
        events plus whatever the end-of-job relay has already brought
        home) is overlaid with the worker's live snapshot file, so the
        answer carries the current bound, conflict count, and conflict
        rate mid-descent.  ``None`` when the id resolves to no record.
        """
        with self._wake:
            record = self._resolve(job_id)
            if record is None:
                return None
            key, status = record.id, record.status
        snapshot = self.telemetry.progress.snapshot(key) or {}
        if status == RUNNING and self._executor is not None:
            path = self._executor.progress_path(key)
            if path is not None:
                from repro.telemetry.progress import read_snapshot

                live = read_snapshot(path)
                if live:
                    snapshot = {**snapshot, **live}
        return {"id": key, "status": status, "progress": snapshot or None}

    def events_wire(self, since: int = 0, timeout: float = 0.0,
                    limit: int = 500) -> dict:
        """The progress feed after cursor ``since`` (``GET /events``);
        with ``timeout`` > 0, long-polls for the first new event."""
        bus = self.telemetry.progress
        if timeout > 0:
            return bus.wait_since(since, timeout=timeout, limit=limit)
        return bus.since(since, limit=limit)

    def forensics_wire(self, job_id: str) -> dict | None:
        """A failed job's flight-recorder dump, by exact id or unique
        prefix (``None`` when no record or no dump)."""
        with self._wake:
            record = self._resolve(job_id)
            if record is None or record.forensics is None:
                return None
            return {"id": record.id, "forensics": record.forensics}

    def proof_wire(self, job_id: str) -> dict | None:
        """A finished job's proof metadata plus its stored DRAT trace.

        ``None`` when the id resolves to nothing at all; a resolved job
        without a proof answers with ``"proof": None`` so the HTTP layer
        can distinguish *no such job* (404) from *no proof* (404 with a
        pointed message).  The full trace document is loaded from the
        cache's content-addressed proof store when present.
        """
        wire = self.lookup_wire(job_id, include_result=True)
        if wire is None:
            return None
        result = wire.get("result") or {}
        proof = result.get("proof")
        payload = {"id": wire["id"], "proof": proof, "trace": None}
        if proof and self.cache is not None and proof.get("sha256"):
            trace = self.cache.get_proof(proof["sha256"])
            if trace is not None:
                payload["trace"] = trace.to_dict()
        return payload

    def counts(self) -> dict[str, int]:
        """Jobs per state (zero states omitted)."""
        with self._wake:
            tally: dict[str, int] = {}
            for record in self._records.values():
                tally[record.status] = tally.get(record.status, 0) + 1
            return tally

    def healthz(self) -> dict:
        counts = self.counts()
        active = counts.get(QUEUED, 0) + counts.get(RUNNING, 0)
        high_water = max(1, int(_HEALTH_HIGH_WATER * self.queue_limit))
        return {
            "ok": self._state != "stopped",
            # "degraded" above the high-water mark is a saturation
            # warning for load balancers — still HTTP 200, still serving.
            "status": ("stopped" if self._state == "stopped"
                       else "degraded" if active >= high_water else "ok"),
            "state": self._state,
            "uptime_s": time.time() - self.started_at,
            "queued": counts.get(QUEUED, 0),
            "running": counts.get(RUNNING, 0),
            "done": counts.get(DONE, 0),
            "failed": counts.get(FAILED, 0),
            "workers": self.jobs,
            "execution": "processes" if self._use_processes else "in-process",
        }

    def stats_wire(self) -> dict:
        stats = self.stats
        cache: dict = {"enabled": self.cache is not None}
        if self.cache is not None:
            cache.update(root=str(self.cache.root),
                         **cache_counts(self.telemetry))
        return {
            "state": self._state,
            "uptime_s": time.time() - self.started_at,
            "queue_limit": self.queue_limit,
            "max_records": self.max_records,
            "workers": self.jobs,
            "execution": "processes" if self._use_processes else "in-process",
            "jobs": self.counts(),
            "counters": {
                "submitted": stats.submitted,
                "accepted": stats.accepted,
                "deduplicated": stats.deduplicated,
                "cache_hits": stats.cache_hits,
                "completed": stats.completed,
                "failed": stats.failed,
                "cancelled": stats.cancelled,
                "rejected": stats.rejected,
                "evicted": stats.evicted,
                "retried": stats.retried,
                "degraded": stats.degraded,
            },
            "cache": cache,
        }

    def wait_for(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until ``job_id`` finishes (in-process convenience; the
        HTTP client polls instead).  Raises ``KeyError`` for unknown ids
        and ``TimeoutError`` on expiry."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise KeyError(job_id)
                if record.finished:
                    return record
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"job {job_id[:12]} still {record.status} after "
                            f"{timeout}s"
                        )
                self._wake.wait(remaining)

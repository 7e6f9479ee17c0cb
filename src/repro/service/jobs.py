"""Job records of the compilation service.

A :class:`JobRecord` is the service-side life of one deduplicated
compilation: its fingerprint key doubles as the job id, so two clients
submitting equivalent work — same modes, config, Hamiltonian support,
method, device shape — are handed the *same* record and the compile runs
once.  Records move through a tiny state machine::

    queued ──► running ──► done
      ▲            │
      │            ├─────► failed      (resubmitting a failed key requeues it)
      └────────────┘
        retrying: a *retryable* error (worker killed, spawn failure) is
        requeued by the daemon with backoff until ``max_attempts``; the
        retried attempt warm-starts from the descent checkpoint.

``done``/``failed`` carry the terminal :mod:`repro.store.batch` outcome
status (``compiled`` / ``warm-start`` / ``cache-hit`` / ``degraded`` /
``error``), so the wire format exposes both *where* a job is and *how*
it got there.  ``degraded`` is a ``done`` job whose deadline expired
mid-descent — the result is the valid best encoding found in time.

The wire form of a finished record embeds the full result under the
versioned result schema of :mod:`repro.encodings.serialization` — the
same document the on-disk cache stores — so a polled result decodes to a
first-class :class:`~repro.core.pipeline.CompilationResult`, identical
to what a direct in-process ``compile()`` would have returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.store.batch import CompileJob, JobOutcome

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import CompilationResult

#: Job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: States in which a job still occupies queue capacity.
ACTIVE_STATES = (QUEUED, RUNNING)


def job_device_label(job: CompileJob) -> str | None:
    """The job's device as a wire-safe string (``None`` = device-free)."""
    if job.device is None:
        return None
    if isinstance(job.device, str):
        return job.device
    return job.device.name


@dataclass
class JobRecord:
    """One deduplicated compilation tracked by the service.

    Attributes:
        id: the job's fingerprint key (:func:`repro.store.batch
            .compile_job_key`) — content-addressed, so it is also the
            dedup identity and the cache key.
        job: the translated :class:`~repro.store.batch.CompileJob`.
        status: one of :data:`JOB_STATES`.
        outcome: terminal :data:`repro.store.batch.JOB_STATUSES` entry
            (``None`` until the job finishes).
        error: failure message when ``status == "failed"``.
        cache_error: set when the compile succeeded but persisting it did
            not (the job is still ``done``).
        result: the decoded result for finished jobs.
        submissions: how many submissions collapsed onto this record.
        submitted_at / started_at / finished_at: wall-clock timestamps
            (``time.time``); ``elapsed_s`` is the solver-side duration.
        trace: relayed span events of the last attempt that brought any
            home (``GET /debug/trace/<id>``).
        forensics: flight-recorder dump of the last *failed* attempt
            (``GET /jobs/<id>/forensics``).

    A resubmitted failed key gets a fresh record that keeps ``trace``
    and ``forensics``; eviction drops them with the record.  Neither is
    part of :meth:`to_wire`.
    """

    id: str
    job: CompileJob
    status: str = QUEUED
    outcome: str | None = None
    error: str | None = None
    cache_error: str | None = None
    result: "CompilationResult | None" = None
    submissions: int = 1
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    elapsed_s: float = 0.0
    #: Dispatch generation — bumped when a failed record is requeued, so
    #: the daemon's eviction queue can tell a finish of an earlier
    #: generation from the current one.
    attempt: int = field(default=0)
    #: Supervised-retry count: how many times the daemon requeued this
    #: record after a retryable failure (distinct from ``attempt``, which
    #: also counts client resubmissions of a failed key).
    retries: int = field(default=0)
    trace: list[dict] | None = None
    forensics: dict | None = None

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)

    def apply_outcome(self, outcome: JobOutcome, finished_at: float) -> None:
        """Fold a batch outcome into the record (terminal transition)."""
        self.outcome = outcome.status
        self.error = outcome.error
        self.cache_error = outcome.cache_error
        self.result = outcome.result
        self.elapsed_s = outcome.elapsed_s
        self.finished_at = finished_at
        self.status = FAILED if outcome.status == "error" else DONE

    def to_wire(self, include_result: bool = True) -> dict:
        """The record's JSON form (``GET /jobs/<id>``; summaries omit the
        result payload)."""
        result = self.result
        data = {
            "id": self.id,
            "status": self.status,
            "label": self.job.display,
            "method": self.job.method,
            "modes": self.job.modes,
            "device": job_device_label(self.job),
            "seed": self.job.seed,
            "outcome": self.outcome,
            "error": self.error,
            "cache_error": self.cache_error,
            "submissions": self.submissions,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_s": self.elapsed_s,
            "weight": None if result is None else result.weight,
            "proved_optimal": None if result is None else result.proved_optimal,
            "retries": self.retries,
            "degraded": False if result is None
            else getattr(result, "degraded", False),
        }
        if include_result and result is not None:
            from repro.encodings.serialization import result_to_dict

            data["result"] = result_to_dict(result)
        return data

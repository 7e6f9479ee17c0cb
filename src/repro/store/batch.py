"""Batch compilation: run a job list, deduplicated by key.

The SAT descent dominates wall-clock time, so a batch front-end has two
cheap wins before it ever parallelizes:

1. **Deduplication** — jobs are fingerprinted first; only one
   representative per distinct key is compiled, and duplicates share its
   result (status ``"deduplicated"``).  Because the fingerprint ignores
   Hamiltonian coefficients, a sweep over e.g. bond lengths of the same
   molecule collapses to a single solve.
2. **Caching** — :meth:`BatchCompiler.compile` answers every unique job
   whose cached result is final before any engine starts; the rest run a
   cache-enabled :class:`~repro.core.pipeline.FermihedralCompiler` that
   warm-starts from an unproved entry.  So a job that misses is looked up
   twice (front door, then compile), a final hit once.

The jobs left run one of two ways.  With ``jobs > 1`` they fan out across
**worker processes** (:class:`repro.parallel.executor
.ProcessBatchExecutor`) — real CPU parallelism for the GIL-holding
pure-Python solver, with per-job failure isolation.  Otherwise
:func:`run_in_process` compiles them one after another in this process
(the service daemon's in-process engine uses it too).  Both engines
always compile, emit :mod:`repro.parallel.events` through ``on_event``,
which the CLI renders as a live per-job status line, and give each job
its own telemetry handle, cache counts included, when the caller holds
one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import chaos
from repro.core.config import (
    COMPILE_METHODS,
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    AnnealingSchedule,
    FermihedralConfig,
    SolverBudget,
)
from repro.core.pipeline import CompilationResult, FermihedralCompiler, hardware_config
from repro.fermion.catalog import parse_model
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.hardware import DeviceTopology, resolve_device
from repro.store.cache import CompilationCache
from repro.store.fingerprint import compilation_key
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder

#: Job statuses a :class:`BatchReport` can contain.  ``degraded`` is a
#: *successful* status: the job's wall-clock deadline expired and the
#: best-so-far encoding was returned instead of an error.
JOB_STATUSES = (
    "compiled", "warm-start", "cache-hit", "deduplicated", "degraded", "error",
)

#: Accepted spellings of the compile methods in job specs — the CLI's
#: ``--method``, batch job files, and the service wire format all share
#: this table so a method means the same thing on every front door.
METHOD_SPELLINGS = {
    "full-sat": METHOD_FULL_SAT,
    "sat-anl": METHOD_ANNEALING,
    "sat+annealing": METHOD_ANNEALING,
    "independent": METHOD_INDEPENDENT,
}

#: Fields a job spec may carry; anything else is a typo in strict mode.
JOB_SPEC_KEYS = ("model", "modes", "method", "seed", "label", "device", "config")

#: Keys of the optional per-job ``config`` override object.  ``proof``
#: and ``deadline_s`` are execution-only fields (excluded from cache
#: fingerprints), so asking for a certificate or a deadline never forks
#: the cache key of an otherwise identical job.
CONFIG_SPEC_KEYS = (
    "algebraic_independence",
    "vacuum_preservation",
    "exact_vacuum",
    "budget_s",
    "max_conflicts",
    "proof",
    "deadline_s",
)


def config_from_spec(
    data: dict, base: FermihedralConfig | None = None
) -> FermihedralConfig:
    """A :class:`FermihedralConfig` built from a plain-data override object.

    ``data`` holds a subset of :data:`CONFIG_SPEC_KEYS`; unspecified
    fields keep the values of ``base`` (the batch or service default
    config).  Unknown keys are rejected — a silently ignored typo in a
    job submission would compile the wrong instance.
    """
    base = base or FermihedralConfig()
    if not isinstance(data, dict):
        raise ValueError(f"'config' must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(CONFIG_SPEC_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config field(s) {', '.join(unknown)}; "
            f"expected a subset of {CONFIG_SPEC_KEYS}"
        )
    for name in ("budget_s", "max_conflicts", "deadline_s"):
        value = data.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name!r} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name!r} must be finite, got {value!r}")
    if data.get("max_conflicts") is not None:
        data = {**data, "max_conflicts": int(data["max_conflicts"])}
    budget = base.budget
    if "budget_s" in data or "max_conflicts" in data:
        budget = SolverBudget(
            max_conflicts=data.get("max_conflicts", budget.max_conflicts),
            time_budget_s=data.get("budget_s", budget.time_budget_s),
        )
    return dataclasses.replace(
        base,
        algebraic_independence=bool(
            data.get("algebraic_independence", base.algebraic_independence)
        ),
        vacuum_preservation=bool(
            data.get("vacuum_preservation", base.vacuum_preservation)
        ),
        exact_vacuum=bool(data.get("exact_vacuum", base.exact_vacuum)),
        budget=budget,
        proof=bool(data.get("proof", base.proof)),
        deadline_s=data.get("deadline_s", base.deadline_s),
    )


def _spec_int(value, name: str) -> int:
    """Coerce a spec field to int, folding type errors into ValueError
    so every malformed spec surfaces the same way (HTTP 400)."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name!r} must be an integer, got {value!r}") from None


def job_from_spec(
    spec: dict,
    default_method: str = METHOD_FULL_SAT,
    default_device=None,
    base_config: FermihedralConfig | None = None,
    strict: bool = False,
) -> CompileJob:
    """Build a :class:`CompileJob` from one plain-data job description.

    The single spec grammar behind ``repro batch`` job files, repeated
    ``--model`` flags, and the service's ``POST /jobs`` body: a JSON
    object with ``model`` *or* ``modes``, plus optional ``method``,
    ``seed``, ``label``, ``device``, and a ``config`` override object
    (see :func:`config_from_spec`).

    Args:
        spec: the job description.
        default_method: method for specs that carry none (any spelling
            in :data:`METHOD_SPELLINGS`).
        default_device: device for specs without a ``device`` field; a
            spec's explicit ``"device": null`` still means device-free.
        base_config: config that a spec's ``config`` object overrides;
            specs without one get ``config=None`` (the batch/service
            default applies).
        strict: reject unknown spec fields — the service API turns this
            on so a typoed field is a 400, not a silently different job.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"each job must be a JSON object, got {spec!r}")
    if strict:
        unknown = sorted(set(spec) - set(JOB_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"unknown job field(s) {', '.join(unknown)}; "
                f"expected a subset of {JOB_SPEC_KEYS}"
            )
    method_name = spec.get("method") or default_method
    if not isinstance(method_name, str):
        raise ValueError(f"'method' must be a string, got {method_name!r}")
    method = METHOD_SPELLINGS.get(method_name)
    if method is None:
        raise ValueError(
            f"unknown method {method_name!r}; expected one of "
            f"{sorted(METHOD_SPELLINGS)}"
        )
    model = spec.get("model")
    if model is not None and not isinstance(model, str):
        raise ValueError(f"'model' must be a spec string, got {model!r}")
    label = spec.get("label", model)
    if label is not None and not isinstance(label, str):
        raise ValueError(f"'label' must be a string, got {label!r}")
    device = spec.get("device", default_device)
    if device is not None and not isinstance(device, (str, DeviceTopology)):
        raise ValueError(f"'device' must be a device name, got {device!r}")
    modes = spec.get("modes")
    if model is not None and method != METHOD_INDEPENDENT:
        hamiltonian, num_modes = parse_model(model), None
    elif model is not None:
        raise ValueError("independent jobs take 'modes', not 'model'")
    elif modes is not None:
        if method != METHOD_INDEPENDENT:
            raise ValueError(f"method {method_name!r} needs a 'model'")
        hamiltonian, num_modes = None, _spec_int(modes, "modes")
    else:
        raise ValueError("each job needs a 'model' or 'modes' field")
    config = None
    if spec.get("config") is not None:
        config = config_from_spec(spec["config"], base_config)
    return CompileJob(
        method=method,
        hamiltonian=hamiltonian,
        num_modes=num_modes,
        config=config,
        schedule=None,
        seed=_spec_int(spec.get("seed", 2024), "seed"),
        label=label,
        device=device,
    )


# repro-lint: worker-shipped
@dataclass(frozen=True)
class CompileJob:
    """One unit of batch work.

    Either a Hamiltonian-dependent job (``hamiltonian`` set, ``num_modes``
    inferred) or a Hamiltonian-independent one (``num_modes`` set).

    Attributes:
        method: one of :data:`repro.core.config.COMPILE_METHODS`.
        hamiltonian: target Hamiltonian for the dependent methods.
        num_modes: mode count for the ``independent`` method.
        config: per-job config override (falls back to the batch default).
        schedule: annealing schedule (``sat+annealing`` only).
        seed: annealing RNG seed (``sat+annealing`` only).
        label: display name for reports; defaults to the Hamiltonian name
            or ``"<N> modes"``.
        device: target topology name (or
            :class:`~repro.hardware.topology.DeviceTopology`) for a
            hardware-aware job; ``None`` compiles device-free.
    """

    method: str = METHOD_INDEPENDENT
    hamiltonian: FermionicHamiltonian | None = None
    num_modes: int | None = None
    config: FermihedralConfig | None = None
    schedule: AnnealingSchedule | None = None
    seed: int = 2024
    label: str | None = None
    device: "str | DeviceTopology | None" = None

    def __post_init__(self):
        if self.method not in COMPILE_METHODS:
            raise ValueError(
                f"unknown compile method {self.method!r}; "
                f"expected one of {COMPILE_METHODS}"
            )
        if self.method == METHOD_INDEPENDENT:
            if self.hamiltonian is not None:
                raise ValueError("independent jobs take no Hamiltonian")
            if self.num_modes is None:
                raise ValueError("independent jobs need num_modes")
        else:
            if self.hamiltonian is None:
                raise ValueError(f"{self.method!r} jobs need a Hamiltonian")
            if (
                self.num_modes is not None
                and self.num_modes != self.hamiltonian.num_modes
            ):
                raise ValueError(
                    f"num_modes={self.num_modes} contradicts the Hamiltonian's "
                    f"{self.hamiltonian.num_modes} modes"
                )

    @property
    def modes(self) -> int:
        """The job's mode count, however it was specified."""
        if self.hamiltonian is not None:
            return self.hamiltonian.num_modes
        return self.num_modes

    @property
    def display(self) -> str:
        """Human-readable job name for batch reports."""
        if self.label:
            return self.label
        if self.hamiltonian is not None:
            return self.hamiltonian.name
        return f"{self.num_modes} modes"


@dataclass
class JobOutcome:
    """The per-job row of a :class:`BatchReport`.

    ``cache_error`` is set when the compilation succeeded but persisting
    it did not (unwritable or vanished cache directory) — the job is
    *not* an error in that case; the result is simply not memoized.

    ``telemetry`` carries the job's own relay payload (its
    ``Telemetry.drain_relay()`` dict, less the ``progress`` the
    in-process engine already streamed live) whenever the caller held a
    telemetry handle, on either engine.  The caller has already absorbed
    it; it stays here for per-job trace storage.  ``None`` when the batch
    ran without telemetry.

    ``forensics`` is the flight-recorder dump assembled at failure time
    (recent breadcrumbs, open spans, a metrics snapshot, the formatted
    traceback) — ``None`` for successful jobs and for failures that ran
    without telemetry.
    """

    job: CompileJob
    key: str
    status: str
    result: CompilationResult | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    cache_error: str | None = None
    telemetry: dict | None = None
    forensics: dict | None = None
    #: An ``error`` outcome that names infrastructure, not the job: the
    #: worker died or could not spawn, so the same job may well succeed on
    #: a fresh attempt.  The service daemon's supervised-retry policy
    #: requeues only these; deterministic failures (bad spec, solver
    #: exception) stay final.
    retryable: bool = False


@dataclass
class BatchReport:
    """Everything a batch run produced, in input job order."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        """Jobs per status, statuses with zero jobs omitted."""
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        return all(outcome.status != "error" for outcome in self.outcomes)

    def summary(self) -> str:
        """One-line roll-up, e.g. ``4 jobs: 2 compiled, 1 cache-hit, 1 deduplicated``."""
        parts = [
            f"{count} {status}"
            for status, count in sorted(self.counts.items())
        ]
        return f"{len(self.outcomes)} jobs: " + ", ".join(parts)


def compile_job_key(job: CompileJob, default_config: FermihedralConfig) -> str:
    """Fingerprint of one job under a batch/service default config.

    The single key computation shared by :class:`BatchCompiler`, the
    parallel executor's callers and the service daemon — all of them must
    agree with what :meth:`FermihedralCompiler.compile` would compute
    itself, or cache entries and dedup decisions would drift apart.
    """
    topology = resolve_device(job.device)
    config = job.config or default_config
    return compilation_key(
        num_modes=job.modes,
        config=hardware_config(config, topology, job.modes),
        hamiltonian=job.hamiltonian,
        method=job.method,
        schedule=job.schedule,
        seed=job.seed,
        device=topology,
    )


def final_cached_result(
    cache: CompilationCache | None, job: CompileJob, key: str, telemetry=None
) -> CompilationResult | None:
    """A cached result that answers ``job`` outright, without a compile.

    The one cache-hit test of the two front doors,
    :meth:`BatchCompiler.compile` and the service daemon's synchronous
    submit: an entry counts only when
    :meth:`FermihedralCompiler._is_final` accepts it, so an unproved entry
    is left for a compile to warm-start from.  The lookup counts into
    ``telemetry``.
    """
    if cache is None:
        return None
    cached = cache.get(key, telemetry=telemetry)
    if cached is None:
        return None
    topology = resolve_device(job.device)
    if not FermihedralCompiler._is_final(cached, job.method, topology):
        return None
    return cached


def run_compile_job(
    job: CompileJob,
    config: FermihedralConfig,
    cache: CompilationCache | None,
    key: str,
    telemetry=None,
) -> JobOutcome:
    """One cache-enabled compile, exceptions folded into an ``error`` outcome.

    The single execution body shared by :func:`run_in_process` (cache
    object in hand) and the process executor's workers (cache reopened by
    directory), so no engine can drift in status mapping or error
    handling.  A cache-store failure (``store-failed``) keeps the job
    successful — the compiled result is returned with ``cache_error``
    noting why it was not persisted.

    ``telemetry`` is handed to the compiler: spans and metrics from the
    descent land in that handle.  Both engines pass a fresh handle per
    job and relay its contents back through :attr:`JobOutcome.telemetry`,
    so no two jobs ever share one.  With telemetry on, a
    per-job :class:`~repro.telemetry.flight.FlightRecorder` additionally
    shadows the run, and a failing job returns its post-mortem dump in
    :attr:`JobOutcome.forensics`; progress events emitted anywhere below
    (descent rungs, solver heartbeats) are tagged with the job key.
    """
    started = time.monotonic()
    progress = getattr(telemetry, "progress", None)
    recorder = None
    if telemetry is not None:
        recorder = FlightRecorder()
        if progress is not None:
            progress.add_sink(recorder.watch)
        recorder.record("info", "job started", job=key, label=job.display)
    job_context = (progress.context(job=key, label=job.display)
                   if progress is not None else nullcontext())
    try:
        with job_context:
            chaos.inject("job.run", telemetry=telemetry, label=job.label)
            compiler = FermihedralCompiler(
                job.modes, config, cache=cache, device=job.device,
                telemetry=telemetry,
            )
            result = compiler.compile(
                method=job.method,
                hamiltonian=job.hamiltonian,
                schedule=job.schedule,
                seed=job.seed,
                cache_key=key,
            )
        status = {
            "hit": "cache-hit",
            "warm-start": "warm-start",
        }.get(compiler.last_cache_status, "compiled")
        if result.degraded and status != "cache-hit":
            status = "degraded"
        return JobOutcome(
            job=job,
            key=key,
            status=status,
            result=result,
            elapsed_s=time.monotonic() - started,
            cache_error=compiler.last_cache_error,
        )
    except Exception as error:  # surfaced per-job, batch keeps going
        outcome = JobOutcome(
            job=job,
            key=key,
            status="error",
            error=f"{type(error).__name__}: {error}",
            elapsed_s=time.monotonic() - started,
        )
        if recorder is not None:
            recorder.record("error", "job failed", job=key,
                            error=outcome.error)
            outcome.forensics = recorder.dump(telemetry, error=error)
        return outcome
    finally:
        # The recorder's sink must not outlive this job.
        if progress is not None:
            progress.remove_sink(recorder.watch)


def run_in_process(
    work: list[tuple[str, CompileJob]],
    default_config: FermihedralConfig,
    cache: CompilationCache | None = None,
    telemetry=None,
    on_event=None,
) -> dict[str, JobOutcome]:
    """Compile unique ``(key, job)`` pairs one after another, in-process.

    The ``jobs == 1`` engine of :class:`BatchCompiler` and the service
    daemon's ``use_processes=False`` engine.  With ``telemetry``, each job
    records into its own handle, exactly as a worker process does: its
    progress streams live into ``telemetry``'s bus, and its spans and
    metric deltas are absorbed (tagged with the job label) and kept on
    :attr:`JobOutcome.telemetry`.  So outcomes, span tags and per-job
    events match the process executor's, and a failing job's forensics
    hold only its own work.
    """
    from repro.parallel.events import JobFinished, JobStarted

    emit = on_event or (lambda event: None)
    total = len(work)
    outcomes: dict[str, JobOutcome] = {}
    for index, (key, job) in enumerate(work):
        emit(JobStarted(index, total, job.display, key))
        job_telemetry = None
        if telemetry is not None:
            job_telemetry = Telemetry()
            job_telemetry.progress.add_sink(
                lambda event: telemetry.progress.ingest([event])
            )
        outcome = run_compile_job(job, job.config or default_config, cache,
                                  key, telemetry=job_telemetry)
        if job_telemetry is not None:
            payload = job_telemetry.drain_relay()
            # Progress already went through the live sink above —
            # absorbing it again would double every event.
            payload.pop("progress", None)
            outcome.telemetry = payload
            telemetry.absorb_relay(payload, extra={"job": job.display})
        outcomes[key] = outcome
        emit(JobFinished(
            index, total, job.display, key, outcome.status,
            outcome.elapsed_s,
            weight=None if outcome.result is None else outcome.result.weight,
            error=outcome.error,
        ))
    return outcomes


class BatchCompiler:
    """Compile many jobs, deduplicating through the cache.

    Args:
        cache: shared persistent cache; ``None`` still deduplicates within
            the batch but persists nothing.
        default_config: config applied to jobs that carry none.
        jobs: worker-*process* count.  ``jobs > 1`` routes the unique jobs
            through :class:`repro.parallel.executor.ProcessBatchExecutor`;
            ``1`` (the default) compiles them serially in this process
            (:func:`run_in_process`).  Results are identical either way —
            same weights, same optimality proofs — the engines only
            change how fast they arrive.
        on_event: :mod:`repro.parallel.events` callback for live progress.
        telemetry: a :class:`repro.telemetry.Telemetry` handle.  The
            front-door cache lookups count into it directly; each compiled
            job records into its own handle, whose spans and metric deltas
            (its cache counts included) are relayed back into this one on
            either engine.
    """

    def __init__(
        self,
        cache: CompilationCache | None = None,
        default_config: FermihedralConfig | None = None,
        jobs: int = 1,
        on_event=None,
        telemetry=None,
    ):
        self.cache = cache
        self.default_config = default_config or FermihedralConfig()
        self.jobs = jobs
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1 process")
        self.on_event = on_event
        self.telemetry = telemetry

    def _emit(self, event) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _job_key(self, job: CompileJob) -> str:
        return compile_job_key(job, self.default_config)

    def compile(self, jobs: list[CompileJob]) -> BatchReport:
        """Run a job list; returns outcomes in the input order.

        Jobs sharing a fingerprint are compiled once: the first occurrence
        runs (``compiled`` / ``warm-start`` / ``cache-hit``), later ones
        report ``deduplicated`` and share its result object.  A final
        cached result answers its job here, before either engine starts.
        """
        from repro.parallel.events import (
            BatchFinished,
            BatchStarted,
            JobFinished,
            JobStarted,
        )

        started = time.monotonic()
        # Fingerprinting itself can fail per job (unknown device name, a
        # device smaller than the mode count); such jobs become error
        # outcomes instead of aborting the batch.
        keys: list[str | None] = []
        key_errors: dict[int, str] = {}
        for index, job in enumerate(jobs):
            try:
                keys.append(self._job_key(job))
            except Exception as error:
                keys.append(None)
                key_errors[index] = f"{type(error).__name__}: {error}"
        primary_index: dict[str, int] = {}
        for index, key in enumerate(keys):
            if key is not None:
                primary_index.setdefault(key, index)

        unique = [(keys[i], jobs[i]) for i in sorted(primary_index.values())]
        primary_outcomes: dict[str, JobOutcome] = {}
        to_compile: list[tuple[str, CompileJob]] = []
        positions: list[int] = []  # index in ``unique`` of each to_compile job
        # Held back until ``BatchStarted``, which can only count the
        # workers once the hits are known.
        hit_events: list = []
        for index, (key, job) in enumerate(unique):
            hit_started = time.monotonic()
            cached = final_cached_result(self.cache, job, key, self.telemetry)
            if cached is None:
                to_compile.append((key, job))
                positions.append(index)
                continue
            outcome = JobOutcome(job=job, key=key, status="cache-hit",
                                 result=cached,
                                 elapsed_s=time.monotonic() - hit_started)
            primary_outcomes[key] = outcome
            hit_events += [
                JobStarted(index, len(unique), job.display, key),
                JobFinished(index, len(unique), job.display, key,
                            outcome.status, outcome.elapsed_s,
                            weight=cached.weight),
            ]
        # Both engines run min(jobs, len(to_compile)) workers; none when
        # every job was a hit.
        self._emit(BatchStarted(
            total=len(jobs),
            unique=len(unique),
            deduplicated=len(jobs) - len(unique) - len(key_errors),
            workers=min(self.jobs, len(to_compile)),
        ))
        for event in hit_events:
            self._emit(event)

        def renumber(event) -> None:
            # Engines number the work they were handed; events count the
            # batch's unique jobs, front-door hits included.
            self._emit(dataclasses.replace(
                event, index=positions[event.index], total=len(unique)))

        on_event = renumber if self.on_event is not None else None
        if self.jobs > 1:
            from repro.parallel.executor import ProcessBatchExecutor

            primary_outcomes.update(ProcessBatchExecutor(
                jobs=self.jobs,
                cache=self.cache,
                default_config=self.default_config,
                on_event=on_event,
                telemetry=self.telemetry,
            ).run(to_compile))
        else:
            primary_outcomes.update(run_in_process(
                to_compile, self.default_config, self.cache,
                telemetry=self.telemetry, on_event=on_event,
            ))

        outcomes: list[JobOutcome] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if key is None:
                outcomes.append(
                    JobOutcome(job=job, key="", status="error",
                               error=key_errors[index])
                )
                continue
            primary = primary_outcomes[key]
            if index == primary_index[key]:
                outcomes.append(primary)
            elif primary.status == "error":
                outcomes.append(
                    JobOutcome(job=job, key=key, status="error", error=primary.error)
                )
            else:
                outcomes.append(
                    JobOutcome(
                        job=job, key=key, status="deduplicated", result=primary.result
                    )
                )
        report = BatchReport(outcomes=outcomes, elapsed_s=time.monotonic() - started)
        self._emit(BatchFinished(
            total=len(outcomes), elapsed_s=report.elapsed_s, counts=report.counts
        ))
        return report

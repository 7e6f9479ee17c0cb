"""Structured progress events for batch execution.

Executors report progress by calling an ``on_event`` callback with one of
the small frozen dataclasses below, always from the coordinating (parent)
process and always in a well-defined order per job::

    BatchStarted
    JobStarted(index=i) ... JobFinished(index=i)      # per job, may interleave
    BatchFinished

Consumers that only want a human-readable line can use
:func:`format_event`; the CLI does exactly that to render a live per-job
status line.  Events are plain data so they can be logged, serialized or
asserted on in tests without touching executor internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Union


@dataclass(frozen=True)
class BatchStarted:
    """A batch run begins: ``total`` jobs, ``unique`` after deduplication,
    compiled on ``workers`` workers (0 when the cache answers them all)."""

    total: int
    unique: int
    deduplicated: int
    workers: int


@dataclass(frozen=True)
class JobStarted:
    """One unique job started: answered from the cache at the batch front
    door, or handed to an engine to compile.  ``index``/``total`` count the
    batch's unique jobs, front-door hits included."""

    index: int
    total: int
    label: str
    key: str


@dataclass(frozen=True)
class JobFinished:
    """One unique job finished, in any status (including ``error``)."""

    index: int
    total: int
    label: str
    key: str
    status: str
    elapsed_s: float
    weight: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class BatchFinished:
    """The whole batch is done; ``counts`` maps status to job tally."""

    total: int
    elapsed_s: float
    counts: dict[str, int]


BatchEvent = Union[BatchStarted, JobStarted, JobFinished, BatchFinished]

#: Signature executors accept for progress reporting.
EventCallback = Callable[[BatchEvent], None]


def event_to_dict(event: BatchEvent) -> dict:
    """Plain-data form of an event (``kind`` plus the dataclass fields)."""
    return {"kind": type(event).__name__, **asdict(event)}


def format_event(event: BatchEvent) -> str:
    """One status line per event, as printed by ``repro batch``."""
    if isinstance(event, BatchStarted):
        dedup = f", {event.deduplicated} deduplicated" if event.deduplicated else ""
        return (f"batch: {event.total} jobs ({event.unique} unique{dedup}) "
                f"on {event.workers} worker(s)")
    if isinstance(event, JobStarted):
        return f"[{event.index + 1}/{event.total}] {event.label} ... started"
    if isinstance(event, JobFinished):
        detail = f" weight {event.weight}" if event.weight is not None else ""
        if event.error:
            detail = f" {event.error}"
        return (f"[{event.index + 1}/{event.total}] {event.label} ... "
                f"{event.status}{detail} ({event.elapsed_s:.2f}s)")
    if isinstance(event, BatchFinished):
        parts = ", ".join(
            f"{count} {status}" for status, count in sorted(event.counts.items())
        )
        return f"batch: done in {event.elapsed_s:.2f}s ({parts})"
    raise TypeError(f"not a batch event: {event!r}")

"""Parallel batch engine: deduplicated jobs fanned across processes.

Two cooperating pieces run a batch's unique jobs concurrently without
giving up reproducibility:

* :mod:`repro.parallel.executor` — fan deduplicated batch-compilation
  jobs across a process pool, with per-job failure isolation.  Cache
  hits never reach it: the batch and service front doors answer them.
* :mod:`repro.parallel.events` — the structured progress events the
  batch engines emit, rendered by the CLI as a live per-job status line.
"""

from repro.parallel.events import (
    BatchFinished,
    BatchStarted,
    JobFinished,
    JobStarted,
    format_event,
)
from repro.parallel.executor import ProcessBatchExecutor

__all__ = [
    "BatchFinished",
    "BatchStarted",
    "JobFinished",
    "JobStarted",
    "ProcessBatchExecutor",
    "format_event",
]

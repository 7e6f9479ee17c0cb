"""Parallel solving engine: portfolio SAT racing and batch fan-out.

Three cooperating pieces turn the solver-bound paths of the compiler
concurrent without giving up reproducibility:

* :mod:`repro.parallel.portfolio` — race diversified copies of one
  incremental SAT instance in worker processes, first definitive answer
  wins, with logical-time (conflict-budget) rounds so the winner is
  deterministic rather than an OS-scheduling accident.
* :mod:`repro.parallel.executor` — fan deduplicated batch-compilation
  jobs across a process pool, with per-job failure isolation.  Cache
  hits never reach it: the batch and service front doors answer them.
* :mod:`repro.parallel.events` — the structured progress events both of
  them emit, rendered by the CLI as a live per-job status line.
"""

from repro.parallel.events import (
    BatchFinished,
    BatchStarted,
    JobFinished,
    JobStarted,
    format_event,
)
from repro.parallel.executor import ProcessBatchExecutor
from repro.parallel.portfolio import (
    PortfolioSolver,
    SolverStrategy,
    diversified_strategies,
)

__all__ = [
    "BatchFinished",
    "BatchStarted",
    "JobFinished",
    "JobStarted",
    "PortfolioSolver",
    "ProcessBatchExecutor",
    "SolverStrategy",
    "diversified_strategies",
    "format_event",
]

"""The parallel engine in action: batch fan-out across processes.

A sweep-shaped job list (duplicates included, as a bond-length sweep
produces after coefficient-free fingerprinting) compiled one job after
another in this process (``jobs=1``, the default engine) and then on 4
worker processes, with the live progress events the CLI renders on
stderr, and identical weights / optimality proofs at either worker
count.

Run:  python examples/parallel_batch.py
"""

import tempfile
import time

from repro import (
    BatchCompiler,
    CompilationCache,
    CompileJob,
    FermihedralConfig,
    SolverBudget,
)
from repro.parallel.events import format_event


def sweep_jobs() -> list[CompileJob]:
    return [
        CompileJob(method="independent", num_modes=n, label=f"{n}-modes/pt-{k}")
        for n in (2, 3)
        for k in range(3)
    ]


def demo_batch() -> None:
    print("--- batch: in-process serial (jobs=1) vs 4 worker processes ---")
    config = FermihedralConfig(budget=SolverBudget(time_budget_s=60))
    jobs = sweep_jobs()

    started = time.monotonic()
    serial = BatchCompiler(jobs=1, default_config=config).compile(jobs)
    serial_s = time.monotonic() - started

    with tempfile.TemporaryDirectory() as root:
        started = time.monotonic()
        parallel = BatchCompiler(
            cache=CompilationCache(root),
            jobs=4,
            default_config=config,
            on_event=lambda event: print("  " + format_event(event)),
        ).compile(jobs)
        parallel_s = time.monotonic() - started

    same = [
        (a.result.weight, a.result.proved_optimal)
        == (b.result.weight, b.result.proved_optimal)
        for a, b in zip(serial.outcomes, parallel.outcomes)
    ]
    print(f"  serial {serial_s:.2f}s vs 4 workers {parallel_s:.2f}s; "
          f"results identical: {all(same)}")


if __name__ == "__main__":
    demo_batch()

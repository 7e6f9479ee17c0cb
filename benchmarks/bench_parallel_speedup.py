"""Parallel-engine benchmark — batch fan-out vs naive serial.

A sweep-shaped workload (each distinct job appears several times, as a
bond-length sweep does after coefficient-free fingerprinting) compiled
two ways: the naive serial loop a user would write (one
``FermihedralCompiler`` per job, no dedup, no cache) vs the 4-worker
``BatchCompiler`` process executor (fingerprint dedup before dispatch,
shared cache, final hits answered before dispatch).  The reported speedup therefore
compounds deduplication with process parallelism — both are things the
serial loop does not do.  The acceptance bar is >= 1.8x; identical
weights and optimality proofs across arms are asserted, and ``--jobs 1``
vs ``--jobs 4`` equality of the batch executor itself is asserted on top.

Scale knobs: ``FERMIHEDRAL_BENCH_MAX_MODES`` caps the sweep's mode
count, ``FERMIHEDRAL_BENCH_BUDGET_S`` the per-SAT-call budget.
"""

from __future__ import annotations

import tempfile
import time

from _harness import budget_seconds, max_modes, report

from repro.core import FermihedralCompiler, FermihedralConfig, SolverBudget
from repro.store import BatchCompiler, CompilationCache, CompileJob

#: How many times each distinct job repeats in the sweep workload.
SWEEP_REPEATS = 4


def _config() -> FermihedralConfig:
    return FermihedralConfig(budget=SolverBudget(time_budget_s=budget_seconds(30.0)))


def _sweep_jobs(modes_cap: int) -> list[CompileJob]:
    jobs = []
    for num_modes in range(2, modes_cap + 1):
        for repeat in range(SWEEP_REPEATS):
            jobs.append(CompileJob(
                method="independent",
                num_modes=num_modes,
                label=f"{num_modes}-modes/pt-{repeat}",
            ))
    return jobs


def _naive_serial(jobs: list[CompileJob], config: FermihedralConfig) -> list:
    """The baseline loop: every job solved from scratch, independently."""
    results = []
    for job in jobs:
        compiler = FermihedralCompiler(job.modes, config)
        results.append(compiler.compile(method=job.method))
    return results


def test_parallel_speedup():
    modes_cap = max_modes(3)
    config = _config()
    jobs = _sweep_jobs(modes_cap)

    started = time.monotonic()
    serial_results = _naive_serial(jobs, config)
    serial_s = time.monotonic() - started

    with tempfile.TemporaryDirectory() as root:
        started = time.monotonic()
        batch = BatchCompiler(
            cache=CompilationCache(root), jobs=4, default_config=config
        )
        batch_report = batch.compile(jobs)
        batch_s = time.monotonic() - started

    assert batch_report.ok
    batch_speedup = serial_s / max(batch_s, 1e-9)

    # Same answers, whatever the execution strategy.
    serial_answers = [(r.weight, r.proved_optimal) for r in serial_results]
    batch_answers = [
        (o.result.weight, o.result.proved_optimal) for o in batch_report.outcomes
    ]
    assert serial_answers == batch_answers

    # --jobs 1 vs --jobs 4 of the executor itself: identical outcomes.
    one = BatchCompiler(jobs=1, default_config=config).compile(jobs)
    assert [(o.result.weight, o.result.proved_optimal) for o in one.outcomes] \
        == batch_answers

    lines = [
        f"workload: {len(jobs)} jobs "
        f"({len(jobs) // SWEEP_REPEATS} unique x {SWEEP_REPEATS} sweep points), "
        f"modes 2..{modes_cap}",
        f"serial loop      {serial_s:8.2f}s",
        f"4-worker batch   {batch_s:8.2f}s   speedup {batch_speedup:5.2f}x",
    ]
    report(
        "parallel_speedup",
        "\n".join(lines),
        data={
            "params": {
                "jobs": len(jobs),
                "unique_jobs": len(jobs) // SWEEP_REPEATS,
                "sweep_repeats": SWEEP_REPEATS,
                "modes_cap": modes_cap,
                "budget_s": budget_seconds(30.0),
                "workers": 4,
            },
            "batch": {
                "serial_wall_s": serial_s,
                "parallel_wall_s": batch_s,
                "speedup": batch_speedup,
            },
        },
    )

    # The acceptance bar: dedup + process fan-out must beat the naive
    # loop by a wide margin on a sweep-shaped workload.
    assert batch_speedup >= 1.8, (
        f"4-worker batch speedup {batch_speedup:.2f}x below the 1.8x bar"
    )


if __name__ == "__main__":
    test_parallel_speedup()

"""The compilation store in action: batch compile, then hit the cache.

Runs the same job list twice through a :class:`BatchCompiler` backed by an
on-disk :class:`CompilationCache`:

1. First pass — duplicate jobs are fingerprint-deduplicated, unique jobs
   pay the SAT cost, and every result is persisted.
2. Second pass — every job is answered from the cache with zero SAT
   calls, descent traces intact.

The cache keeps no counters of its own: each pass hands the batch a fresh
:class:`Telemetry` handle and reads the cache activity back from it with
:func:`cache_counts`.  A job that misses is looked up twice (the batch's
check for a final hit, then the compile's own lookup), a hit once.

Run:  python examples/batch_cached_compile.py
"""

import tempfile

from repro import (
    BatchCompiler,
    CompilationCache,
    CompileJob,
    FermihedralConfig,
    SolverBudget,
    hubbard_chain,
)
from repro.store import cache_counts
from repro.telemetry import Telemetry


def run_pass(name: str, cache: CompilationCache, jobs: list[CompileJob]) -> None:
    print(f"--- {name} ---")
    telemetry = Telemetry()
    report = BatchCompiler(
        cache=cache,
        default_config=FermihedralConfig(budget=SolverBudget(time_budget_s=60)),
        telemetry=telemetry,
    ).compile(jobs)
    for outcome in report.outcomes:
        result = outcome.result
        print(f"  {outcome.job.display:22s} {outcome.status:12s} "
              f"weight={result.weight if result else '-':<4} "
              f"sat_calls={result.descent.sat_calls if result else '-'} "
              f"({outcome.elapsed_s:.2f}s)")
    print(f"  {report.summary()} in {report.elapsed_s:.2f}s")
    counts = cache_counts(telemetry)
    print(f"  cache: {counts['hits']} hits, {counts['misses']} misses, "
          f"{counts['stores']} stores\n")


def main() -> None:
    jobs = [
        CompileJob(method="independent", num_modes=2, label="2-mode library"),
        CompileJob(method="independent", num_modes=2, label="2-mode (duplicate)"),
        CompileJob(method="independent", num_modes=3, label="3-mode library"),
        CompileJob(method="sat+annealing", hamiltonian=hubbard_chain(2),
                   label="hubbard-2 (annealed)"),
    ]
    with tempfile.TemporaryDirectory() as root:
        cache = CompilationCache(root)
        run_pass("first pass: compile + store", cache, jobs)
        run_pass("second pass: pure cache hits", cache, jobs)
        print("entries on disk:")
        for info in cache.entries():
            print(f"  {info.key[:16]}…  modes={info.num_modes} "
                  f"method={info.method} weight={info.weight} "
                  f"optimal={info.proved_optimal}")


if __name__ == "__main__":
    main()

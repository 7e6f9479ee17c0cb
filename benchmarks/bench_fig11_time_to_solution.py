"""Figure 11 — construct and solve time with vs without algebraic independence.

Regenerates the construction panel for both instances: the with-Alg
instance is the descent's CNF plus the Section 3.4 power-set family,
added by calling ``encoder.add_algebraic_independence()`` directly.  The
solve panel has only the without-Alg arm, the one ``descend`` runs: the
family is implied by anticommutativity, so the descent no longer emits it
and cannot run the with-Alg solve.  Solve time excludes the UNSAT-proof
call, as in the paper — the descent budget bounds it.  Asserted shape:
dropping the algebraic clauses speeds up construction, with the gap
widening as N grows.
"""

from __future__ import annotations

import time

from _harness import budget_seconds, max_modes, report

from repro.analysis.tables import format_table
from repro.core import FermihedralConfig, SolverBudget, build_base_formula, descend

MODES = max_modes(4)


def _construct_time(num_modes: int, algebraic: bool) -> float:
    start = time.monotonic()
    encoder, _ = build_base_formula(num_modes, FermihedralConfig())
    if algebraic:
        encoder.add_algebraic_independence()
    return time.monotonic() - start


def _solve_time(num_modes: int) -> float:
    config = FermihedralConfig(
        budget=SolverBudget(time_budget_s=budget_seconds(30.0)),
    )
    result = descend(num_modes, config=config)
    # Exclude the final UNSAT/timeout call, mirroring the paper's metric.
    productive = [s.elapsed_s for s in result.steps if s.status == "SAT"]
    return sum(productive) if productive else result.solve_time_s


def test_fig11_time_to_solution(benchmark):
    rows = []
    gaps = []
    for num_modes in range(2, MODES + 1):
        construct_with = _construct_time(num_modes, True)
        construct_without = _construct_time(num_modes, False)
        construct_speedup = construct_with / max(construct_without, 1e-9)
        gaps.append(construct_speedup)
        rows.append(
            [
                num_modes,
                f"{construct_with:.3f}",
                f"{construct_without:.3f}",
                f"{construct_speedup:.1f}x",
                f"{_solve_time(num_modes):.3f}",
            ]
        )

    table = format_table(
        [
            "modes", "construct w/ (s)", "construct w/o (s)", "speedup",
            "solve w/o (s)",
        ],
        rows,
    )
    report("fig11_time_to_solution", table)

    # Construction speedup exists and grows with N (exponential clause family).
    assert gaps[-1] > 1.0
    if len(gaps) >= 2:
        assert gaps[-1] > gaps[0]

    benchmark(_construct_time, MODES, False)

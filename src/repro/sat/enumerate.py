"""Model enumeration via blocking clauses.

Used by the Figure-4 experiment, which samples many distinct optimal
encodings: after each model, a clause forbidding that assignment (projected
onto the variables of interest) is added to one incremental solver, which
re-runs with everything it learned so far.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.sat.cnf import CnfFormula
from repro.sat.solver import CdclSolver


def enumerate_models(
    formula: CnfFormula,
    projection: Sequence[int],
    limit: int,
    max_conflicts_per_model: int | None = None,
    time_budget_s: float | None = None,
) -> Iterator[dict[int, bool]]:
    """Yield up to ``limit`` models distinct on the ``projection`` variables.

    The input formula is not mutated; blocking clauses accumulate in the
    solver.  Enumeration stops early on UNSAT (no more models) or when a
    per-model budget expires.
    """
    if not projection:
        raise ValueError("projection must name at least one variable")
    solver = CdclSolver(formula)
    for _ in range(limit):
        result = solver.solve(
            max_conflicts=max_conflicts_per_model,
            time_budget_s=time_budget_s,
        )
        if not result.is_sat:
            return
        model = result.model
        yield model
        solver.add_clause([
            (-variable if model[variable] else variable)
            for variable in projection
        ])

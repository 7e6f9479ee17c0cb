"""Table 3 — SAT instance size with and without algebraic independence.

Regenerates #variables, #clauses and mean clause width of the generated
instances (Hamiltonian-independent objective, as in the paper).  The
with-Alg column grows as ``4^N`` and is capped by default at 5 modes; the
without-Alg column is polynomial and runs to 18 as in the paper.  The
descent only ever builds the without-Alg instance (anticommutativity
implies independence), so the with-Alg column adds the Section 3.4 family
by calling ``encoder.add_algebraic_independence()`` directly.
"""

from __future__ import annotations

from _harness import int_env, max_modes, report

from repro.analysis.tables import format_table
from repro.core import FermihedralConfig, build_base_formula

WITH_ALG_MAX = int_env("FERMIHEDRAL_BENCH_T3_WITHALG_MAX", 5)
WITHOUT_ALG_MAX = max_modes(18)


def _instance_stats(num_modes: int, algebraic: bool):
    config = FermihedralConfig(vacuum_preservation=True)
    encoder, _ = build_base_formula(num_modes, config)
    if algebraic:
        encoder.add_algebraic_independence()
    formula = encoder.formula
    return formula.num_variables, formula.num_clauses, formula.average_clause_length()


def test_table3_instance_sizes(benchmark):
    rows = []
    for num_modes in range(2, WITHOUT_ALG_MAX + 1):
        if num_modes <= WITH_ALG_MAX:
            with_vars, with_clauses, with_avg = _instance_stats(num_modes, True)
            with_cells = [with_vars, with_clauses, f"{with_avg:.2f}"]
        else:
            with_cells = ["N/A", "N/A", "N/A"]
        wo_vars, wo_clauses, wo_avg = _instance_stats(num_modes, False)
        rows.append(
            [num_modes, *with_cells, wo_vars, wo_clauses, f"{wo_avg:.2f}"]
        )

    table = format_table(
        [
            "modes", "#vars w/", "#clauses w/", "avg len w/",
            "#vars w/o", "#clauses w/o", "avg len w/o",
        ],
        rows,
    )
    report("table3_instance_size", table)

    # Shape assertions mirroring the paper's observations:
    # 1. w/ grows exponentially: clause count at N is >3x the count at N-1.
    with_counts = [
        _instance_stats(n, True)[1] for n in range(2, WITH_ALG_MAX + 1)
    ]
    for previous, current in zip(with_counts, with_counts[1:]):
        assert current > 3 * previous
    # 2. w/o grows polynomially: N=8 instance stays under the N=4 w/ count
    #    scaled by far less than 4^4.
    wo_counts = [_instance_stats(n, False)[1] for n in (4, 8)]
    assert wo_counts[1] < 16 * wo_counts[0]

    benchmark(_instance_stats, 6, False)

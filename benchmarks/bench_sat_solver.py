"""Substrate benchmarks — the flattened CDCL solver and its descent ladder.

Not a paper table; tracks the SAT layer's own health so substrate
regressions are visible independently of the compiler-level benchmarks.
Three workloads:

* **descent-full** — the 4-mode Hamiltonian-independent descent with an
  unlimited budget, run with and without CNF preprocessing.  Both arms
  must reach the same optimal weight with a final UNSAT rung — the
  optimality proof — which checks the execution-strategy contract end to
  end (preprocessing may change which optimum comes back, never the
  weight or the proof).
* **descent-ladder** — the 6-mode Majorana instance (the paper's
  "SAT w/o Alg." configuration) under a deterministic per-rung conflict
  budget, again with and without preprocessing.  Definitive SAT/UNSAT
  answers at a bound may never contradict between arms.  Because a
  faster engine spends the same budget *descending further* (more SAT
  rungs, more total conflicts), the tracked throughput number is
  conflicts per second, not bare wall-clock.
* **ladder-rung** — one fixed, hard rung of that ladder (a bound well
  below anything reachable, solved under an exact conflict budget), so
  the preprocessed and raw arms perform the identical logical quantum of
  work.  This is the CI regression gate: the preprocessed arm slower
  than the raw arm beyond a small noise tolerance fails the run.
* **proof-overhead** — the same fixed rung with and without DRAT proof
  logging (``proof=True``).  Identical conflict budget, identical raw
  instance; the wall ratio isolates the cost of emission and a second CI
  gate keeps it under 15%.
* **telemetry-overhead** — the same fixed rung with and without a live
  :class:`repro.telemetry.Telemetry` handle on the solver (best of three
  runs per arm).  Counters sample only at restart boundaries, so a third
  CI gate holds the overhead under 5%.
* **solver-health** — pigeonhole UNSAT and random 3-SAT at the phase
  transition, the classic pure-solver microbenchmarks.

Run as a script (CI does)::

    PYTHONPATH=src python benchmarks/bench_sat_solver.py --json
    # exit code 1 if the preprocessed ladder is slower than the raw one

or under pytest (``python -m pytest benchmarks/bench_sat_solver.py``)
for a scaled-down smoke version.  ``FERMIHEDRAL_BENCH_LADDER_MODES`` and
``FERMIHEDRAL_BENCH_LADDER_CONFLICTS`` resize the ladder workload.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import _harness
from _harness import int_env, report

from repro.core.config import FermihedralConfig, SolverBudget
from repro.core.descent import descend
from repro.sat import CnfFormula, solve_formula
from repro.sat.preprocess import clear_memo

#: Noise tolerance of the preprocessed-vs-raw gate: machine jitter must
#: not fail CI, a real regression must.
GATE_TOLERANCE = 1.10

#: Budget for DRAT proof logging on the fixed rung: emission is two list
#: appends per learned/deleted clause, so anything beyond 15% means the
#: hot path regressed (e.g. logging leaked into propagation).
PROOF_GATE_TOLERANCE = 1.15

#: Budget for live telemetry on the fixed rung.  Counters are sampled at
#: restart boundaries only, never inside propagate/analyze, so the cost
#: should be unmeasurable; 5% is pure jitter headroom.  Beyond it means
#: instrumentation leaked into the hot loop.
TELEMETRY_GATE_TOLERANCE = 1.05

#: PR 3 reference numbers on the development machine (same workloads,
#: same process pattern, best of 2), kept so the results file shows the
#: substrate's trajectory.  Historical context, not a CI gate — absolute
#: numbers are machine-specific.  Measured at the PR boundary: the
#: 4-mode full descent took 4.40 s, and the 6-mode ladder managed 590
#: conflicts/s while stalling at weight 37 (the budget died on the
#: bound-36 rung the flattened solver now clears in one conflict).
PR3_BASELINE = {"full_wall_s": 4.40, "ladder_conflicts_per_s": 590}


def _pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    formula = CnfFormula()
    slot = {}
    for p in range(pigeons):
        for h in range(holes):
            slot[p, h] = formula.new_variable()
    for p in range(pigeons):
        formula.add_clause(slot[p, h] for h in range(holes))
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            formula.add_clause((-slot[p1, h], -slot[p2, h]))
    return formula


def _random_3sat(seed: int, num_vars: int, ratio: float) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula()
    formula.new_variables(num_vars)
    for _ in range(int(ratio * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        formula.add_clause(rng.choice((-1, 1)) * v for v in variables)
    return formula


def _run_descent(modes: int, preprocess: bool, *,
                 algebraic_independence: bool = True,
                 max_conflicts: int | None = None):
    config = FermihedralConfig(
        algebraic_independence=algebraic_independence,
        preprocess=preprocess,
        budget=SolverBudget(max_conflicts=max_conflicts),
    )
    # A preprocessed arm pays for its own simplification: no earlier
    # bench in this process may have left the answer in the memo.
    clear_memo()
    started = time.monotonic()
    result = descend(modes, config)
    wall = time.monotonic() - started
    return wall, result


def _statuses_consistent(with_pre, without_pre) -> bool:
    """Definitive answers at a bound must agree between the two arms."""
    by_bound: dict[int, str] = {}
    for result in (with_pre, without_pre):
        for step in result.steps:
            if step.status not in ("SAT", "UNSAT"):
                continue
            previous = by_bound.setdefault(step.bound, step.status)
            if previous != step.status:
                return False
    return True


def bench_descent_full(modes: int = 4) -> dict:
    """Unlimited-budget descent: proof and weight must survive preprocessing."""
    pre_wall, pre = _run_descent(modes, preprocess=True)
    raw_wall, raw = _run_descent(modes, preprocess=False)
    assert pre.weight == raw.weight, (
        f"preprocessing changed the optimum: {pre.weight} != {raw.weight}")
    assert pre.proved_optimal and raw.proved_optimal, "optimality proof lost"
    assert pre.steps[-1].status == raw.steps[-1].status == "UNSAT", (
        "the final rung must be the UNSAT optimality certificate")
    assert _statuses_consistent(pre, raw)
    return {
        "modes": modes,
        "weight": pre.weight,
        "proved_optimal": True,
        "preprocessed_wall_s": round(pre_wall, 3),
        "raw_wall_s": round(raw_wall, 3),
        "preprocessed_conflicts": pre.total_conflicts,
        "raw_conflicts": raw.total_conflicts,
    }


def bench_descent_ladder(modes: int, max_conflicts: int) -> dict:
    """Budgeted ladder descent: throughput and descent quality per arm."""
    pre_wall, pre = _run_descent(
        modes, preprocess=True,
        algebraic_independence=False, max_conflicts=max_conflicts,
    )
    raw_wall, raw = _run_descent(
        modes, preprocess=False,
        algebraic_independence=False, max_conflicts=max_conflicts,
    )
    assert _statuses_consistent(pre, raw), (
        "preprocessed and raw ladders contradicted each other on a bound")
    return {
        "modes": modes,
        "max_conflicts_per_rung": max_conflicts,
        "preprocessed_wall_s": round(pre_wall, 3),
        "raw_wall_s": round(raw_wall, 3),
        "preprocessed_weight": pre.weight,
        "raw_weight": raw.weight,
        "preprocessed_conflicts": pre.total_conflicts,
        "raw_conflicts": raw.total_conflicts,
        "preprocessed_conflicts_per_s": round(pre.total_conflicts / max(pre_wall, 1e-9)),
        "raw_conflicts_per_s": round(raw.total_conflicts / max(raw_wall, 1e-9)),
    }


def bench_ladder_rung(modes: int, max_conflicts: int) -> dict:
    """One fixed hard rung, identical conflict budget in both arms.

    The bound sits at the structural lower limit (2 per Majorana string)
    — far below anything a budgeted search can reach — so both arms burn
    the exact conflict budget and the wall ratio is a clean throughput
    comparison.  The preprocessed arm pays its simplification cost inside
    the measurement, and reports it on its own as ``preprocess_s`` (with
    the simplified clause count, ``preprocessed_clauses_out``).
    """
    from repro.core.descent import build_base_formula, measured_weight
    from repro.encodings.bravyi_kitaev import bravyi_kitaev
    from repro.sat.preprocess import preprocess
    from repro.sat.solver import CdclSolver

    config = FermihedralConfig(algebraic_independence=False)
    baseline = bravyi_kitaev(modes)
    bound = 2 * 2 * modes  # average weight 2 per string: unreachably tight
    out: dict = {"modes": modes, "bound": bound, "max_conflicts": max_conflicts}
    statuses = {}
    for arm in ("preprocessed", "raw"):
        clear_memo()  # the descent-ladder bench simplified this CNF too
        started = time.monotonic()
        encoder, indicators = build_base_formula(modes, config)
        selectors = encoder.weight_ladder(
            indicators, measured_weight(baseline) - 1)
        formula = encoder.formula
        reconstructor = None
        if arm == "preprocessed":
            frozen = set(encoder.all_string_variables())
            frozen.update(abs(s) for s in selectors)
            preprocess_started = time.monotonic()
            simplified = preprocess(formula, frozen=frozen)
            out["preprocess_s"] = round(time.monotonic() - preprocess_started, 3)
            out["preprocessed_clauses_out"] = simplified.formula.num_clauses
            formula = simplified.formula
            reconstructor = simplified.reconstruct
        solver = CdclSolver(
            formula, seed_phases=encoder.encoding_assignment(baseline))
        result = solver.solve(
            max_conflicts=max_conflicts, assumptions=(selectors[bound],))
        wall = time.monotonic() - started
        statuses[arm] = result.status
        if result.is_sat and reconstructor is not None:
            result.model = reconstructor(result.model)
        out[f"{arm}_wall_s"] = round(wall, 3)
        out[f"{arm}_status"] = result.status
        out[f"{arm}_conflicts"] = result.conflicts
        out[f"{arm}_propagations"] = result.propagations
    definitive = {s for s in statuses.values() if s in ("SAT", "UNSAT")}
    assert len(definitive) <= 1, f"arms contradict at bound {bound}: {statuses}"
    out["gate_ok"] = out["preprocessed_wall_s"] <= out["raw_wall_s"] * GATE_TOLERANCE
    return out


def bench_proof_overhead(modes: int, max_conflicts: int) -> dict:
    """The fixed hard rung with and without DRAT proof logging.

    Both arms burn the identical conflict budget on the identical raw
    instance, so the wall ratio isolates what ``--proof`` costs the
    search itself; the best wall of three runs per arm keeps one noisy
    run from tripping the 15% gate.  The proof arm also reports how much
    trace it banked.
    """
    from repro.core.descent import build_base_formula, measured_weight
    from repro.encodings.bravyi_kitaev import bravyi_kitaev
    from repro.sat.drat import ProofLog
    from repro.sat.solver import CdclSolver

    config = FermihedralConfig(algebraic_independence=False)
    baseline = bravyi_kitaev(modes)
    bound = 2 * 2 * modes
    out: dict = {"modes": modes, "bound": bound, "max_conflicts": max_conflicts}
    statuses = {}
    for arm in ("plain", "proof"):
        best_wall = None
        for _ in range(3):
            log = ProofLog() if arm == "proof" else None
            started = time.monotonic()
            encoder, indicators = build_base_formula(modes, config)
            selectors = encoder.weight_ladder(
                indicators, measured_weight(baseline) - 1)
            solver = CdclSolver(
                encoder.formula,
                seed_phases=encoder.encoding_assignment(baseline),
                proof=log,
            )
            result = solver.solve(
                max_conflicts=max_conflicts, assumptions=(selectors[bound],))
            wall = time.monotonic() - started
            if best_wall is None or wall < best_wall:
                best_wall = wall
        statuses[arm] = result.status
        out[f"{arm}_wall_s"] = round(best_wall, 3)
        out[f"{arm}_status"] = result.status
        out[f"{arm}_conflicts"] = result.conflicts
        if log is not None:
            out["proof_lines_banked"] = len(log)
    definitive = {s for s in statuses.values() if s in ("SAT", "UNSAT")}
    assert len(definitive) <= 1, f"proof arm contradicts: {statuses}"
    out["overhead_ratio"] = round(
        out["proof_wall_s"] / max(out["plain_wall_s"], 1e-9), 3)
    out["gate_ok"] = (
        out["proof_wall_s"] <= out["plain_wall_s"] * PROOF_GATE_TOLERANCE)
    return out


def bench_telemetry_overhead(modes: int, max_conflicts: int) -> dict:
    """The fixed hard rung with and without a live telemetry handle.

    Same shape as :func:`bench_proof_overhead`: identical conflict
    budget, identical raw instance, best wall of three runs per arm so
    the tight 5% gate measures instrumentation cost rather than machine
    jitter.  The telemetry arm also reports how many spans and counter
    samples it banked, proving the handle was actually live.
    """
    from repro.core.descent import build_base_formula, measured_weight
    from repro.encodings.bravyi_kitaev import bravyi_kitaev
    from repro.sat.solver import CdclSolver
    from repro.telemetry import Telemetry

    config = FermihedralConfig(algebraic_independence=False)
    baseline = bravyi_kitaev(modes)
    bound = 2 * 2 * modes
    out: dict = {"modes": modes, "bound": bound, "max_conflicts": max_conflicts}
    statuses = {}
    for arm in ("plain", "telemetry"):
        telemetry = Telemetry() if arm == "telemetry" else None
        best_wall = None
        for _ in range(3):
            started = time.monotonic()
            encoder, indicators = build_base_formula(modes, config)
            selectors = encoder.weight_ladder(
                indicators, measured_weight(baseline) - 1)
            solver = CdclSolver(
                encoder.formula,
                seed_phases=encoder.encoding_assignment(baseline),
                telemetry=telemetry,
            )
            result = solver.solve(
                max_conflicts=max_conflicts, assumptions=(selectors[bound],))
            wall = time.monotonic() - started
            if best_wall is None or wall < best_wall:
                best_wall = wall
        statuses[arm] = result.status
        out[f"{arm}_wall_s"] = round(best_wall, 3)
        out[f"{arm}_status"] = result.status
        out[f"{arm}_conflicts"] = result.conflicts
        if telemetry is not None:
            rendered = telemetry.render_metrics()
            out["telemetry_metric_lines"] = sum(
                1 for line in rendered.splitlines()
                if line and not line.startswith("#"))
    definitive = {s for s in statuses.values() if s in ("SAT", "UNSAT")}
    assert len(definitive) <= 1, f"telemetry arm contradicts: {statuses}"
    out["overhead_ratio"] = round(
        out["telemetry_wall_s"] / max(out["plain_wall_s"], 1e-9), 3)
    out["gate_ok"] = (
        out["telemetry_wall_s"]
        <= out["plain_wall_s"] * TELEMETRY_GATE_TOLERANCE)
    return out


def bench_solver_health() -> dict:
    started = time.monotonic()
    assert solve_formula(_pigeonhole(7, 6)).is_unsat
    pigeonhole_wall = time.monotonic() - started
    started = time.monotonic()
    statuses = [solve_formula(_random_3sat(seed, 60, 4.26)).status for seed in range(5)]
    transition_wall = time.monotonic() - started
    assert all(status in ("SAT", "UNSAT") for status in statuses)
    assert solve_formula(_random_3sat(3, 120, 2.0)).is_sat
    return {
        "pigeonhole_7_6_wall_s": round(pigeonhole_wall, 3),
        "random_3sat_phase_transition_wall_s": round(transition_wall, 3),
    }


def _format(data: dict) -> str:
    lines = []
    for key, value in data.items():
        lines.append(f"  {key:<38} {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", nargs="?", const=str(_harness.RESULTS_DIR),
                        default=None, metavar="DIR",
                        help="also write BENCH_sat_*.json files "
                             "(default DIR: benchmarks/results)")
    parser.add_argument("--modes", type=int,
                        default=int_env("FERMIHEDRAL_BENCH_LADDER_MODES", 6),
                        help="ladder workload size (default: 6)")
    parser.add_argument("--max-conflicts", type=int,
                        default=int_env("FERMIHEDRAL_BENCH_LADDER_CONFLICTS", 20000),
                        help="deterministic conflict budget per ladder rung")
    parser.add_argument("--skip-full", action="store_true",
                        help="skip the unlimited-budget full descent")
    args = parser.parse_args(argv)
    if args.json:
        _harness.JSON_DIR = args.json

    health = bench_solver_health()
    report("sat_solver_health", _format(health), data=health)

    sections = [("solver-health", health)]
    if not args.skip_full:
        full = bench_descent_full()
        if PR3_BASELINE["full_wall_s"]:
            # Per-arm: on an instance this small the trajectory (how many
            # rungs the descent happens to visit) dominates the wall, so a
            # single blended number would mislead.
            full["pr3_reference_wall_s"] = PR3_BASELINE["full_wall_s"]
            full["raw_speedup_vs_pr3"] = round(
                PR3_BASELINE["full_wall_s"] / full["raw_wall_s"], 2)
            full["preprocessed_speedup_vs_pr3"] = round(
                PR3_BASELINE["full_wall_s"] / full["preprocessed_wall_s"], 2)
        report("sat_descent_full", _format(full), data=full)
        sections.append(("descent-full", full))

    ladder = bench_descent_ladder(args.modes, args.max_conflicts)
    if args.modes == 6 and PR3_BASELINE["ladder_conflicts_per_s"]:
        ladder["pr3_reference_conflicts_per_s"] = PR3_BASELINE["ladder_conflicts_per_s"]
        ladder["throughput_vs_pr3"] = round(
            ladder["preprocessed_conflicts_per_s"]
            / PR3_BASELINE["ladder_conflicts_per_s"], 2)
    report("sat_descent_ladder", _format(ladder), data=ladder)
    sections.append(("descent-ladder", ladder))

    rung = bench_ladder_rung(args.modes, args.max_conflicts)
    report("sat_ladder_rung", _format(rung), data=rung)
    sections.append(("ladder-rung", rung))

    overhead = bench_proof_overhead(args.modes, args.max_conflicts)
    report("sat_proof_overhead", _format(overhead), data=overhead)
    sections.append(("proof-overhead", overhead))

    tele = bench_telemetry_overhead(args.modes, args.max_conflicts)
    report("sat_telemetry_overhead", _format(tele), data=tele)
    sections.append(("telemetry-overhead", tele))

    failed = False
    if not rung["gate_ok"]:
        print(
            f"FAIL: preprocessed rung ({rung['preprocessed_wall_s']}s) is "
            f"slower than the raw rung ({rung['raw_wall_s']}s) beyond the "
            f"{GATE_TOLERANCE}x noise tolerance",
            file=sys.stderr,
        )
        failed = True
    if not overhead["gate_ok"]:
        print(
            f"FAIL: proof logging ({overhead['proof_wall_s']}s) slowed the "
            f"rung ({overhead['plain_wall_s']}s) beyond the "
            f"{PROOF_GATE_TOLERANCE}x budget",
            file=sys.stderr,
        )
        failed = True
    if not tele["gate_ok"]:
        print(
            f"FAIL: live telemetry ({tele['telemetry_wall_s']}s) slowed the "
            f"rung ({tele['plain_wall_s']}s) beyond the "
            f"{TELEMETRY_GATE_TOLERANCE}x budget",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    for name, data in sections:
        print(f"ok: {name}")
    return 0


# -- pytest smoke entry points (explicit invocation only; bench_* files are
# -- not collected by the tier-1 run) ----------------------------------------


def test_bench_solver_health():
    bench_solver_health()


def test_bench_descent_full_small():
    data = bench_descent_full(modes=3)
    assert data["proved_optimal"]


def test_bench_descent_ladder_small():
    data = bench_descent_ladder(modes=4, max_conflicts=2000)
    assert data["preprocessed_conflicts"] >= 0


def test_bench_proof_overhead_small():
    data = bench_proof_overhead(modes=4, max_conflicts=500)
    assert data["plain_status"] == data["proof_status"]
    assert data["proof_lines_banked"] > 0


def test_bench_telemetry_overhead_small():
    data = bench_telemetry_overhead(modes=4, max_conflicts=500)
    assert data["plain_status"] == data["telemetry_status"]
    assert data["telemetry_metric_lines"] > 0


def test_bench_ladder_rung_small():
    data = bench_ladder_rung(modes=4, max_conflicts=500)
    assert data["preprocessed_status"] == data["raw_status"] or (
        "UNKNOWN" in (data["preprocessed_status"], data["raw_status"]))


if __name__ == "__main__":
    sys.exit(main())

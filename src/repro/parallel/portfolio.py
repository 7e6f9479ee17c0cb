"""Portfolio SAT racing: diversified solvers on one instance, first win.

A portfolio runs N copies of the same CNF under differently-tuned CDCL
solvers (branching randomization, restart schedule, phase polarity) in
separate worker processes and takes the first definitive SAT/UNSAT
answer.  Diversification is the whole point: on instances where the
reference heuristic stalls, some other configuration often finishes
quickly, and the portfolio's time-to-solution is the minimum over its
members.

**Determinism.**  A naive race ("whoever answers first on the wall
clock") makes the winning model an OS-scheduling accident.  This runner
races in *logical time* instead: solving proceeds in rounds of a fixed
per-worker conflict budget with a synchronization barrier after each
round, and the winner is the lowest-indexed worker holding a definitive
answer in the earliest such round.  Losing workers are cancelled at that
barrier (they are never issued another round).  Conflict-budgeted rounds
are a deterministic unit of work, so for a fixed worker count the status
*and* the returned model are reproducible run to run, on any machine,
under any scheduler.  Worker 0 always runs the reference configuration —
a one-worker portfolio is exactly the sequential solver.  Across
different worker counts the chosen model may legitimately differ (a
different strategy may answer first), but definitive answers cannot
contradict each other: SAT/UNSAT per instance is objective, so with
enough budget the descent loop's achieved weights and optimality proofs
agree at every width.  Budgets are the caveat — a wider portfolio may
*answer* a call (some member finishes inside the per-member conflict
budget) where a narrower one returns UNKNOWN, and wall-clock budgets
(``time_budget_s``) additionally reintroduce timing dependence in where
the search gives up, exactly as they do for the sequential solver.

Workers hold their solver instance for the lifetime of the portfolio, so
the incremental interface (``solve(assumptions=...)`` per descent rung,
``add_clause`` for mid-run clauses, ``set_phases`` for warm
starts) carries learned clauses across calls inside every worker, just
like the in-process incremental engine.

The formula a portfolio is built from is whatever the caller hands it:
the incremental descent engine preprocesses the instance first
(:mod:`repro.sat.preprocess`), so the simplification cost is paid once
in the parent and every worker process inherits the smaller formula.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from dataclasses import dataclass

from repro import chaos
from repro.sat.cnf import CnfFormula
from repro.sat.solver import (
    _ACTIVITY_DECAY,
    _RESTART_BASE,
    SAT,
    UNKNOWN,
    UNSAT,
    CdclSolver,
    SolveResult,
    SolverStats,
)

#: Conflicts each worker spends per round between synchronization
#: barriers.  Small enough that cancellation is responsive, large enough
#: that barrier overhead is negligible against Python-solver conflict
#: rates.
DEFAULT_ROUND_CONFLICTS = 2048


@dataclass(frozen=True)
class SolverStrategy:
    """One portfolio member's CDCL tuning.

    ``name`` is purely descriptive.  Building a solver from the default
    strategy (``SolverStrategy.reference()``) yields the exact reference
    configuration of :class:`repro.sat.solver.CdclSolver`.
    """

    name: str = "reference"
    restart_base: int = _RESTART_BASE
    activity_decay: float = _ACTIVITY_DECAY
    phase_default: bool = False
    random_seed: int | None = None
    random_branch_freq: float = 0.0

    @classmethod
    def reference(cls) -> "SolverStrategy":
        return cls()

    def build(
        self,
        formula: CnfFormula,
        seed_phases: dict[int, bool] | None = None,
        proof=None,
        telemetry=None,
    ) -> CdclSolver:
        return CdclSolver(
            formula,
            seed_phases=seed_phases,
            restart_base=self.restart_base,
            activity_decay=self.activity_decay,
            phase_default=self.phase_default,
            random_seed=self.random_seed,
            random_branch_freq=self.random_branch_freq,
            proof=proof,
            telemetry=telemetry,
        )


#: The diversification table: worker ``i > 0`` takes row ``(i - 1) %
#: len``, with the RNG seed offset by ``i`` so equal rows still explore
#: differently.  Worker 0 is always the reference strategy.
_DIVERSIFICATION = (
    # (restart_base, activity_decay, phase_default, random_branch_freq)
    (64, 0.92, True, 0.05),
    (256, 0.98, False, 0.02),
    (32, 0.90, True, 0.10),
    (512, 0.99, False, 0.0),
    (128, 0.95, True, 0.15),
    (96, 0.93, False, 0.07),
)


def diversified_strategies(workers: int) -> list[SolverStrategy]:
    """Deterministic strategy assignment for a ``workers``-wide portfolio."""
    if workers < 1:
        raise ValueError("a portfolio needs at least one worker")
    strategies = [SolverStrategy.reference()]
    for index in range(1, workers):
        base, decay, phase, freq = _DIVERSIFICATION[(index - 1) % len(_DIVERSIFICATION)]
        strategies.append(
            SolverStrategy(
                name=f"diversified-{index}",
                restart_base=base,
                activity_decay=decay,
                phase_default=phase,
                random_seed=0x5EED + index,
                random_branch_freq=freq,
            )
        )
    return strategies


def _worker_main(conn, formula: CnfFormula, strategy: SolverStrategy,
                 seed_phases: dict[int, bool] | None,
                 emit_proof: bool = False,
                 relay_telemetry: bool = False,
                 worker_index: int = 0) -> None:
    """Worker process loop: build one persistent solver, serve commands."""
    try:
        log = None
        if emit_proof:
            from repro.sat.drat import ProofLog

            log = ProofLog()
        telemetry = None
        if relay_telemetry:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        solver = strategy.build(formula, seed_phases=seed_phases, proof=log,
                                telemetry=telemetry)
    except Exception as error:  # pragma: no cover - construction is simple
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ready",))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent vanished
            return
        command = message[0]
        try:
            if command == "solve":
                _, assumptions, max_conflicts = message
                if telemetry is None:
                    result = solver.solve(
                        max_conflicts=max_conflicts, assumptions=assumptions
                    )
                else:
                    with telemetry.span("portfolio.slice",
                                        worker=worker_index,
                                        strategy=strategy.name) as attrs:
                        result = solver.solve(
                            max_conflicts=max_conflicts,
                            assumptions=assumptions,
                        )
                        attrs.update(status=result.status,
                                     conflicts=result.stats.conflicts)
                # A winner's refutation is only checkable against that
                # worker's own clause-derivation history, so an UNSAT
                # reply ships the full cumulative log.
                proof_payload = None
                if log is not None and result.status == UNSAT:
                    proof_payload = (list(log.lines), list(log.axioms))
                conn.send((
                    "result",
                    result.status,
                    result.model,
                    result.under_assumptions,
                    result.stats,
                    len(solver.learned),
                    proof_payload,
                    None if telemetry is None else telemetry.drain_relay(),
                ))
            elif command == "add":
                solver.add_clause(message[1])
                conn.send(("ok",))
            elif command == "phases":
                solver.set_phases(message[1])
                conn.send(("ok",))
            elif command == "quit":
                conn.close()
                return
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception as error:
            conn.send(("error", f"{type(error).__name__}: {error}"))


class PortfolioSolver:
    """Race diversified solver processes on one incremental SAT instance.

    Drop-in for :class:`repro.sat.solver.CdclSolver` at the surface the
    descent engine uses: ``solve(max_conflicts=..., time_budget_s=...,
    assumptions=...)``, ``add_clause``, ``set_phases`` — plus ``close()``
    to release the worker processes (also a context manager).

    Args:
        formula: the CNF instance; pickled once to each worker.
        workers: portfolio width.  ``1`` runs the reference solver
            in-process (no processes, bit-identical to ``CdclSolver``).
        seed_phases: warm-start phase hints shared by every member.
        strategies: explicit per-worker tunings; defaults to
            :func:`diversified_strategies`.
        round_conflicts: logical round length (see the module docstring).
        proof: optional :class:`repro.sat.drat.ProofLog`.  Lines already
            in the log at construction (the preprocessor's) are treated
            as an immutable prefix; after every UNSAT answer the suffix
            is replaced with the *winning worker's* cumulative solver
            log, so the shared log always describes one coherent
            derivation history — the winner's.
        telemetry: optional :class:`repro.telemetry.Telemetry`.  Each
            worker then runs its own local telemetry, wraps every solve
            slice in a ``portfolio.slice`` span, and ships the drained
            events/metric deltas back with each round's reply; the
            parent absorbs them tagged with the logical round and worker
            index, so merged traces arrive exactly once, in round order.

    If worker processes cannot be spawned at all (restricted sandboxes),
    the portfolio degrades to the in-process reference solver and sets
    ``degraded = True`` — solving never becomes unavailable just because
    ``fork`` is.
    """

    def __init__(
        self,
        formula: CnfFormula,
        workers: int = 2,
        seed_phases: dict[int, bool] | None = None,
        strategies: list[SolverStrategy] | None = None,
        round_conflicts: int = DEFAULT_ROUND_CONFLICTS,
        proof=None,
        telemetry=None,
    ):
        if workers < 1:
            raise ValueError("a portfolio needs at least one worker")
        if round_conflicts < 1:
            raise ValueError("round_conflicts must be positive")
        self.workers = workers
        self.round_conflicts = round_conflicts
        self.telemetry = telemetry
        self._round = 0  # logical rounds issued over the solver's lifetime
        self._proof = proof
        self._proof_line_prefix = 0 if proof is None else len(proof.lines)
        self._proof_axiom_prefix = 0 if proof is None else len(proof.axioms)
        self.strategies = strategies or diversified_strategies(workers)
        if len(self.strategies) != workers:
            raise ValueError(
                f"{workers} workers need {workers} strategies, "
                f"got {len(self.strategies)}"
            )
        self.degraded = False
        self._local: CdclSolver | None = None
        self._processes: list[multiprocessing.Process] = []
        self._pipes: list = []

        if workers == 1:
            self._local = self.strategies[0].build(formula, seed_phases,
                                                   proof=proof,
                                                   telemetry=telemetry)
            return
        try:
            context = multiprocessing.get_context()
            for index, strategy in enumerate(self.strategies):
                # A ChaosFault is a RuntimeError: it walks the same
                # degrade-to-in-process path a real spawn failure takes.
                chaos.inject("worker.spawn", telemetry=telemetry)
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, formula, strategy, seed_phases,
                          proof is not None, telemetry is not None, index),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._pipes.append(parent_conn)
                self._processes.append(process)
            for conn in self._pipes:
                reply = conn.recv()
                if reply[0] != "ready":
                    raise RuntimeError(f"portfolio worker failed to start: {reply}")
        except (OSError, RuntimeError) as error:
            self._teardown()
            warnings.warn(
                f"portfolio could not spawn worker processes ({error}); "
                "falling back to in-process solving",
                RuntimeWarning,
                stacklevel=2,
            )
            self.degraded = True
            self._local = self.strategies[0].build(formula, seed_phases,
                                                   proof=proof,
                                                   telemetry=telemetry)

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "PortfolioSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        for conn in self._pipes:
            try:
                conn.send(("quit",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=2.0)
        self._teardown()

    def _teardown(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._pipes = []

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- broadcast helpers -----------------------------------------------------

    def _broadcast(self, message: tuple) -> list[tuple]:
        replies = []
        for conn in self._pipes:
            conn.send(message)
        for index, conn in enumerate(self._pipes):
            try:
                reply = conn.recv()
            except (EOFError, OSError) as error:
                raise RuntimeError(
                    f"portfolio worker {index} died mid-command"
                ) from error
            if reply[0] == "error":
                raise RuntimeError(f"portfolio worker {index}: {reply[1]}")
            replies.append(reply)
        return replies

    # -- incremental solver surface -------------------------------------------

    def add_clause(self, literals) -> None:
        """Add a clause to every portfolio member (incremental use)."""
        clause = list(literals)
        if self._local is not None:
            self._local.add_clause(clause)
            return
        self._broadcast(("add", clause))

    def set_phases(self, phases: dict[int, bool]) -> None:
        """Install warm-start phase hints in every portfolio member."""
        if self._local is not None:
            self._local.set_phases(phases)
            return
        self._broadcast(("phases", dict(phases)))

    def solve(
        self,
        max_conflicts: int | None = None,
        time_budget_s: float | None = None,
        assumptions: "list[int] | tuple[int, ...] | None" = None,
    ) -> SolveResult:
        """Race the portfolio until a definitive answer or budget exhaustion.

        The conflict budget is per member (as it is for the sequential
        solver); the time budget is checked at round barriers, so the
        overshoot is at most one round.  Statistics aggregate the whole
        portfolio's effort; ``elapsed_s`` is wall-clock.
        """
        if self._local is not None:
            return self._local.solve(
                max_conflicts=max_conflicts,
                time_budget_s=time_budget_s,
                assumptions=assumptions,
            )

        start = time.monotonic()
        deadline = None if time_budget_s is None else start + time_budget_s
        assumptions = tuple(assumptions or ())
        spent = 0  # per-member conflicts issued so far
        total = SolverStats()

        while True:
            slice_budget = self.round_conflicts
            if max_conflicts is not None:
                slice_budget = min(slice_budget, max_conflicts - spent)
                if slice_budget <= 0:
                    break
            logical_round = self._round
            self._round += 1
            replies = self._broadcast(("solve", assumptions, slice_budget))
            spent += slice_budget
            winner = None
            for index, reply in enumerate(replies):
                (_, status, model, under_assumptions, stats, learned,
                 proof_payload, tele_payload) = reply
                total = total + stats
                if self.telemetry is not None and tele_payload:
                    # Round-major, worker-minor absorption order: merged
                    # events land exactly once, ordered by logical round.
                    self.telemetry.absorb_relay(
                        tele_payload,
                        extra={"round": logical_round, "worker": index},
                    )
                if winner is None and status in (SAT, UNSAT):
                    winner = (index, status, model, under_assumptions, learned,
                              proof_payload)
            if winner is not None:
                (index, status, model, under_assumptions, winner_learned,
                 proof_payload) = winner
                if self._proof is not None and proof_payload is not None:
                    # Splice the winner's cumulative solver log in after
                    # the immutable (preprocessor) prefix; repeated UNSAT
                    # answers keep overwriting with the latest winner's
                    # complete history.
                    winner_lines, winner_axioms = proof_payload
                    del self._proof.lines[self._proof_line_prefix:]
                    self._proof.lines.extend(
                        (tag, tuple(lits)) for tag, lits in winner_lines
                    )
                    del self._proof.axioms[self._proof_axiom_prefix:]
                    self._proof.axioms.extend(
                        tuple(clause) for clause in winner_axioms
                    )
                return SolveResult(
                    status=status,
                    model=model,
                    stats=total,
                    elapsed_s=time.monotonic() - start,
                    under_assumptions=under_assumptions,
                    learned_clauses=winner_learned,
                )
            if deadline is not None and time.monotonic() > deadline:
                break

        return SolveResult(
            status=UNKNOWN,
            model=None,
            stats=total,
            elapsed_s=time.monotonic() - start,
        )

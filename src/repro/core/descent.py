"""Weight descent: the paper's Algorithm 1.

A SAT solver only answers decision questions, so the minimal-weight
encoding is found by iterated bound tightening: ask for a model strictly
lighter than the best one so far, re-measure it, and repeat until the
answer is UNSAT (the optimum is proved) or the budget or deadline runs
out (the best model so far is returned unproved).

The loop builds the CNF and a shared totalizer ladder once and answers
each bound with a one-literal assumption on a persistent solver, so
learned clauses survive between rungs.  Within each class of qubits of
equal objective weight, the CNF also orders the qubit columns
(:meth:`FermihedralEncoder.add_column_lex`), so the solver refutes one
labelling of each class instead of every permutation of it, and the
warm-start encoding is relabelled into that order.

Neither ``config.algebraic_independence`` setting emits the power-set
algebraic-independence family of Section 3.4: ``2N`` pairwise-
anticommuting strings are always GF(2)-independent (see
:func:`build_base_formula`), so the family excludes no model the
anticommutativity clauses admit and the probability of a dependent model
is exactly 0, not the ``4^-N`` of Section 4.1.  Every SAT model is still
rank-checked; a dependent one can only mean an encoder or solver bug and
raises :class:`DependentModelError` instead of being returned.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointSink, DescentCheckpoint
from repro.core.config import FermihedralConfig
from repro.core.encoder import (
    FermihedralEncoder,
    column_lex_order,
    weight_classes,
)
from repro.encodings.base import MajoranaEncoding
from repro.encodings.bravyi_kitaev import bravyi_kitaev
from repro.encodings.serialization import encoding_to_dict, step_to_dict
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.paulis.symplectic import dependent_subset
from repro.sat.solver import CdclSolver, SolverStats
from repro.telemetry.progress import RungEtaEstimator

#: Sentinel for ``solve_at(time_budget_s=...)``: "use the config budget".
#: (``None`` is taken — it means unlimited.)
_USE_CONFIG = object()
#: The ``engine`` attribute of descent spans, progress events and proof
#: metadata (a wire value dashboards and stored proofs carry).
_ENGINE = "incremental"


class DependentModelError(RuntimeError):
    """A SAT model decoded to algebraically dependent Majorana strings.

    The instance forces pairwise anticommutation, which implies
    independence, so this names an encoder or solver defect; the descent
    fails closed instead of returning (or blocking and retrying) the model.
    """

    def __init__(self, bound: int, subset: list[int]):
        self.bound = bound
        self.subset = subset
        super().__init__(
            f"SAT model at bound {bound} is algebraically dependent: strings "
            f"{subset} multiply to identity (encoder or solver defect)"
        )


def _span(telemetry, name: str, **attrs):
    """A telemetry span, or an inert context when telemetry is off."""
    if telemetry is None:
        return nullcontext({})
    return telemetry.span(name, **attrs)


@dataclass
class DescentStep:
    """One SAT call inside the descent loop.

    Carries the solver statistics of the (final) solver run at this bound
    — one :class:`~repro.sat.solver.SolverStats` — so ``repro solve
    --stats`` and the benchmarks can report search effort, not just wall
    time.
    """

    bound: int
    status: str
    achieved_weight: int | None
    elapsed_s: float
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def conflicts(self) -> int:
        return self.stats.conflicts

    @property
    def decisions(self) -> int:
        return self.stats.decisions

    @property
    def propagations(self) -> int:
        return self.stats.propagations

    @property
    def restarts(self) -> int:
        return self.stats.restarts


@dataclass
class DescentResult:
    """Outcome of a descent run."""

    encoding: MajoranaEncoding
    weight: int
    proved_optimal: bool
    steps: list[DescentStep] = field(default_factory=list)
    construct_time_s: float = 0.0
    solve_time_s: float = 0.0
    #: Always 0: dependent models cannot occur (see
    #: :func:`build_base_formula`).  Kept in the serialized form.
    repairs: int = 0
    #: One-time CNF simplification cost (0.0 when preprocessing is off,
    #: near 0 when this process simplified the same CNF recently and the
    #: :func:`repro.sat.preprocess.preprocess` memo answered).
    preprocess_time_s: float = 0.0
    #: DRAT certificate of the final UNSAT rung (``config.proof`` on and
    #: the descent reached an UNSAT answer); check it with
    #: :func:`repro.sat.drat.check_trace`.  ``None`` otherwise.
    proof_trace: "object | None" = None
    #: The wall-clock deadline (``config.deadline_s``) expired before the
    #: descent finished tightening: ``encoding`` is the best model found
    #: in time (never worse than the baseline) and ``target_bound`` is the
    #: bound still being chased when time ran out.
    degraded: bool = False
    target_bound: int | None = None
    #: This run warm-started from a persisted checkpoint left by an
    #: earlier (killed or interrupted) attempt; ``steps`` includes the
    #: prior attempt's completed rungs.
    resumed: bool = False

    @property
    def sat_calls(self) -> int:
        return len(self.steps)

    @property
    def total_conflicts(self) -> int:
        return sum(step.conflicts for step in self.steps)

    @property
    def total_decisions(self) -> int:
        return sum(step.decisions for step in self.steps)

    @property
    def total_propagations(self) -> int:
        return sum(step.propagations for step in self.steps)

    @property
    def total_restarts(self) -> int:
        return sum(step.restarts for step in self.steps)


def measured_weight(
    encoding: MajoranaEncoding,
    hamiltonian: FermionicHamiltonian | None = None,
    qubit_weights: tuple[int, ...] | None = None,
) -> int:
    """The descent objective value of an encoding.

    Uniform: summed Majorana weight, or the encoded-Hamiltonian weight.
    With ``qubit_weights`` (the connectivity-weighted objective), every
    non-identity position on qubit ``q`` contributes ``qubit_weights[q]``
    instead of 1 — exactly what the weighted SAT indicators count.
    """
    if qubit_weights is None:
        if hamiltonian is None:
            return encoding.total_majorana_weight
        return encoding.hamiltonian_pauli_weight(hamiltonian)
    if hamiltonian is None:
        return sum(
            qubit_weights[qubit]
            for string in encoding.strings
            for qubit in string.support
        )
    total = 0
    for monomial in hamiltonian.monomials:
        image, _ = encoding.monomial_image(monomial)
        total += sum(qubit_weights[qubit] for qubit in image.support)
    return total


def build_base_formula(
    num_modes: int,
    config: FermihedralConfig,
    hamiltonian: FermionicHamiltonian | None = None,
) -> tuple[FermihedralEncoder, list[int]]:
    """Construct the weight-bound-free part of the SAT instance.

    Returns the encoder and the objective indicator literals; the descent
    appends one cardinality ladder over the indicators
    (:meth:`FermihedralEncoder.weight_ladder`) and picks each bound by
    assumption.

    The power-set family (:meth:`FermihedralEncoder.
    add_algebraic_independence`) is never emitted, whatever
    ``config.algebraic_independence`` says: anticommutativity already
    implies it.  Suppose a subset ``S`` of the ``2N`` strings multiplies
    to a multiple of ``I``, which commutes with everything.  If ``|S|`` is
    even, any member of ``S`` anticommutes with the other ``|S| - 1``
    members, an odd number, hence with the product.  If ``|S|`` is odd,
    ``S`` is not the whole (even-sized) set, and any string outside ``S``
    anticommutes with all ``|S|`` members, hence with the product.
    Either way the product is not a multiple of ``I``.  An UNSAT answer
    on this subset of the paper's clauses is therefore also one on all of
    them.
    """
    encoder = FermihedralEncoder(num_modes)
    encoder.add_anticommutativity()
    if config.vacuum_preservation:
        if config.exact_vacuum:
            encoder.add_exact_vacuum_preservation()
        else:
            encoder.add_vacuum_preservation()
    if hamiltonian is None:
        indicators = encoder.majorana_weight_indicators()
    else:
        indicators = encoder.hamiltonian_weight_indicators(hamiltonian)
    return encoder, indicators


#: The descent CNF orders the qubit columns within each weight class (see
#: :func:`build_instance`).
SYMMETRY_COLUMN_LEX = "column-lex"
#: The descent CNF keeps every qubit labelling.
SYMMETRY_NONE = "none"


def symmetry_for(qubit_weights: tuple[int, ...] | None) -> str:
    """The symmetry breaking a descent under ``qubit_weights`` uses:
    column-lex within the :func:`~repro.core.encoder.weight_classes`,
    unless every qubit has a weight of its own and there is nothing to
    order.  ``None`` and uniform weights are one class of every qubit."""
    if qubit_weights is not None and \
            len(set(qubit_weights)) == len(qubit_weights) > 1:
        return SYMMETRY_NONE
    return SYMMETRY_COLUMN_LEX


def build_instance(
    num_modes: int,
    config: FermihedralConfig,
    hamiltonian: FermionicHamiltonian | None,
    symmetry: str,
) -> tuple[FermihedralEncoder, list[int]]:
    """The descent's bound-free CNF: :func:`build_base_formula`, then the
    column-lex comparators within the weight classes of
    ``config.qubit_weights`` when ``symmetry`` is
    :data:`SYMMETRY_COLUMN_LEX`.

    The descent and the proof-claim checker
    (:func:`repro.core.claims.rebuild_claim`) both build through here and
    then append ``encoder.weight_ladder(indicators, max_bound,
    config.qubit_weights)``, so a claim rebuilds the certified CNF
    exactly.
    """
    encoder, indicators = build_base_formula(num_modes, config, hamiltonian)
    if symmetry == SYMMETRY_COLUMN_LEX:
        encoder.add_column_lex(weight_classes(config.qubit_weights, num_modes))
    return encoder, indicators


def _step_from_result(
    bound: int, result, achieved_weight: int | None,
) -> DescentStep:
    """A :class:`DescentStep` carrying the solver statistics of ``result``."""
    return DescentStep(
        bound=bound,
        status=result.status,
        achieved_weight=achieved_weight,
        elapsed_s=result.elapsed_s,
        stats=result.stats,
    )


def _checked_decode(
    encoder: FermihedralEncoder, model: dict[int, bool], bound: int,
) -> MajoranaEncoding:
    """Decode a SAT model, failing closed on dependent strings."""
    candidate = encoder.decode(model)
    subset = dependent_subset(candidate.strings)
    if subset is not None:
        raise DependentModelError(bound, subset)
    return candidate


class _IncrementalBoundSolver:
    """Answers "is there a valid encoding of weight <= bound?" for every
    rung of the descent, on one persistent SAT instance.

    :meth:`prepare` installs a shared cardinality ladder wide enough for
    the loosest bound the descent will ever ask about, and each
    :meth:`solve_at` call is then a single one-literal assumption against
    the same clause database.  Learned clauses, branching activities and
    saved phases all survive between bounds, so the ladder's later (and
    harder) rungs start from everything the earlier rungs discovered.

    With ``config.preprocess`` (the default) the instance handed to the
    solver backend is first simplified by :func:`repro.sat.preprocess.
    preprocess` — encoding variables and ladder selectors frozen, so
    assumptions and warm-start phases keep their meaning — and every SAT
    model is lifted back onto the original variables before decoding.
    Preprocessing happens once per descent, ahead of solver construction,
    and at most once per process for a given CNF (the preprocess memo).
    """

    def __init__(
        self,
        encoder: FermihedralEncoder,
        indicators: list[int],
        config: FermihedralConfig,
        hamiltonian: FermionicHamiltonian | None,
        phases: dict[int, bool] | None,
        telemetry=None,
        claim: dict | None = None,
    ):
        self.encoder = encoder
        self.indicators = indicators
        self.config = config
        self.hamiltonian = hamiltonian
        self.phases = phases
        self.telemetry = telemetry
        self.solve_time_s = 0.0
        self.preprocess_time_s = 0.0
        self.last_unsat_trace = None
        self._selectors: list[int] | None = None
        self._reconstruct = None
        self._solver = None
        self._proof_log = None
        self._base_formula = None
        self._claim = claim

    def prepare(self, max_bound: int) -> None:
        """Build the bound ladder and the persistent solver (idempotent).

        ``max_bound`` must be at least the largest bound any later
        :meth:`solve_at` call will request.
        """
        if self._selectors is not None:
            return
        width = max(max_bound, 0)
        self._selectors = self.encoder.weight_ladder(
            self.indicators, width, self.config.qubit_weights
        )
        if self._claim is not None:
            self._claim = dict(self._claim, max_bound=width)
        formula = self.encoder.formula
        if self.config.proof:
            from repro.sat.drat import ProofLog

            # One log spans preprocessing and every solver call, and the
            # trace certifies the pre-simplification instance — the CNF a
            # reader can rebuild from the encoder's published constraints.
            self._proof_log = ProofLog()
            self._base_formula = formula
        if self.config.preprocess:
            from repro.sat.preprocess import preprocess

            # Everything the descent talks to the solver about afterwards
            # must survive simplification: the encoding bits (decode,
            # warm-start phases) and the ladder
            # selectors (per-rung assumptions).
            frozen = set(self.encoder.all_string_variables())
            frozen.update(abs(selector) for selector in self._selectors)
            started = time.monotonic()
            simplified = preprocess(formula, frozen=frozen,
                                    proof=self._proof_log,
                                    telemetry=self.telemetry)
            self.preprocess_time_s = time.monotonic() - started
            self._reconstruct = simplified.reconstruct
            formula = simplified.formula
        self._solver = CdclSolver(
            formula, seed_phases=self.phases, proof=self._proof_log,
            telemetry=self.telemetry,
        )

    def solve_at(
        self, bound: int, time_budget_s=_USE_CONFIG,
    ) -> tuple[DescentStep, MajoranaEncoding | None]:
        """One bound query under a single ladder assumption.

        ``time_budget_s`` overrides the config's per-call budget for this
        rung (the descent passes the time left to its deadline).
        """
        if time_budget_s is _USE_CONFIG:
            time_budget_s = self.config.budget.time_budget_s
        if self._selectors is None:
            raise RuntimeError("prepare() must run before solve_at()")
        if bound >= len(self._selectors):
            raise RuntimeError(
                f"bound {bound} exceeds the prepared ladder "
                f"(max {len(self._selectors) - 1})"
            )
        selector = self._selectors[bound]

        result = self._solver.solve(
            max_conflicts=self.config.budget.max_conflicts,
            time_budget_s=time_budget_s,
            assumptions=(selector,),
        )
        self.solve_time_s += result.elapsed_s

        if not result.is_sat:
            if result.is_unsat and self._proof_log is not None:
                from repro.sat.drat import build_trace

                # The descent stops at its first UNSAT rung, so this
                # trace is its optimality proof.
                self.last_unsat_trace = build_trace(
                    self._base_formula,
                    self._proof_log,
                    assumptions=(selector,),
                    meta={"bound": bound, "engine": _ENGINE},
                    claim=(None if self._claim is None
                           else dict(self._claim, bound=bound)),
                )
            return _step_from_result(bound, result, None), None

        model = result.model
        if self._reconstruct is not None:
            # Lift the simplified-instance model back onto the original
            # variable pool (eliminated variables get consistent values)
            # before anything downstream reads it.
            model = self._reconstruct(model)
        candidate = _checked_decode(self.encoder, model, bound)
        self._solver.set_phases({
            v: model[v] for v in self.encoder.all_string_variables()
        })
        achieved = measured_weight(
            candidate, self.hamiltonian, self.config.qubit_weights
        )
        return _step_from_result(bound, result, achieved), candidate


def descend(
    num_modes: int,
    config: FermihedralConfig | None = None,
    hamiltonian: FermionicHamiltonian | None = None,
    baseline: MajoranaEncoding | None = None,
    telemetry=None,
    checkpoint: "CheckpointSink | None" = None,
) -> DescentResult:
    """Run Algorithm 1: tighten the bound to one below the best weight so
    far until the answer is UNSAT or the budget or deadline ends.

    Every rung asks for ``best_weight - 1``, so ``proved_optimal`` is
    exactly "the last rung was UNSAT".

    Args:
        num_modes: number of fermionic modes ``N``.
        config: constraint/budget configuration (defaults to Full SAT).
        hamiltonian: when given, optimize the Hamiltonian-dependent weight
            (Section 3.7); otherwise the Hamiltonian-independent objective.
        baseline: encoding supplying the starting bound and warm-start
            phases; defaults to Bravyi-Kitaev, as in the paper.  Under
            column-lex symmetry breaking its phases come from its
            relabelling lex-sorted within each weight class, which has
            the same weight.
        telemetry: optional :class:`repro.telemetry.Telemetry`; wraps the
            run in a ``descent`` span with one ``descent.rung`` child per
            SAT call (bound + engine + status attrs) and threads through
            to the preprocessor and solver backends.
        checkpoint: optional :class:`repro.core.checkpoint.CheckpointSink`.
            When given, rung progress is persisted after every completed
            rung (best-effort — a failed save never stops the descent) and
            a checkpoint left by an earlier killed attempt is loaded
            first, so the run resumes from its best encoding instead of
            the baseline.

    With ``config.deadline_s`` set, the whole run — construction,
    preprocessing and every rung — races one wall-clock deadline; on
    expiry the best encoding so far is returned with ``degraded=True``
    (graceful degradation, never an error) and the unresolved bound in
    ``target_bound``.
    """
    config = config or FermihedralConfig()
    if config.qubit_weights is not None and len(config.qubit_weights) != num_modes:
        raise ValueError(
            f"config.qubit_weights has {len(config.qubit_weights)} entries, "
            f"the job has {num_modes} modes"
        )
    baseline = baseline or bravyi_kitaev(num_modes)

    # The deadline clocks the whole descent; budget.time_budget_s limits
    # each SAT call separately.  Per rung, the effective budget is the
    # smaller of the two.
    deadline = None
    if config.deadline_s is not None:
        deadline = time.monotonic() + config.deadline_s

    resumed_cp = None
    prior_steps: list[DescentStep] = []
    prior_solve_time = 0.0
    if checkpoint is not None:
        resumed_cp = checkpoint.load()
        if resumed_cp is not None:
            restored = resumed_cp.decode_encoding(num_modes)
            if restored is None:
                resumed_cp = None  # unreadable checkpoint: cold-start
            else:
                baseline = restored
                try:
                    prior_steps = resumed_cp.decode_steps()
                except (ValueError, KeyError, TypeError):
                    prior_steps = []
                prior_solve_time = resumed_cp.solve_time_s

    symmetry = symmetry_for(config.qubit_weights)
    construct_start = time.monotonic()
    encoder, indicators = build_instance(num_modes, config, hamiltonian,
                                         symmetry)
    construct_time = time.monotonic() - construct_start

    seed = baseline
    if symmetry == SYMMETRY_COLUMN_LEX:
        # An unsorted baseline can violate the comparators, and then its
        # phases steer the first rungs into conflicts.
        seed = baseline.with_qubit_order(column_lex_order(
            baseline, weight_classes(config.qubit_weights, num_modes)))
    phases = encoder.encoding_assignment(seed)
    claim = None
    if config.proof:
        from repro.core.claims import proof_claim

        claim = proof_claim(num_modes, config, hamiltonian, symmetry)
    bound_solver = _IncrementalBoundSolver(
        encoder, indicators, config, hamiltonian, phases, telemetry=telemetry,
        claim=claim,
    )

    best_encoding = baseline
    best_weight = measured_weight(baseline, hamiltonian, config.qubit_weights)
    steps: list[DescentStep] = list(prior_steps)
    proved_optimal = False
    deadline_hit = False
    target_bound: int | None = None

    progress = getattr(telemetry, "progress", None)
    eta = RungEtaEstimator()
    if progress is not None:
        progress.emit("descent", modes=num_modes, engine=_ENGINE,
                      start_weight=best_weight)
        if resumed_cp is not None:
            progress.emit("descent.resume", weight=best_weight,
                          completed_rungs=len(prior_steps),
                          next_bound=best_weight - 1)
    if resumed_cp is not None and telemetry is not None:
        telemetry.counter(
            "repro_descent_resumes_total",
            "descents resumed from a persisted checkpoint",
        ).inc()

    def rung_budget() -> tuple[float | None, bool]:
        """Effective time budget of the next rung: ``(budget, expired)``."""
        budget_s = config.budget.time_budget_s
        if deadline is None:
            return budget_s, False
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, True
        return (remaining if budget_s is None else min(budget_s, remaining)), False

    def save_checkpoint() -> None:
        if checkpoint is None:
            return
        checkpoint.save(DescentCheckpoint(
            encoding=encoding_to_dict(best_encoding),
            weight=best_weight,
            steps=[step_to_dict(step) for step in steps],
            solve_time_s=prior_solve_time + bound_solver.solve_time_s,
            created_at=time.time(),
        ))

    # repro-lint: hot-path
    def solve_rung(bound: int, time_budget_s=_USE_CONFIG):
        with _span(telemetry, "descent.rung", bound=bound,
                   engine=_ENGINE) as attrs:
            if progress is not None:
                # Implicit fields for every heartbeat the solver emits
                # inside this rung: the current bound/engine, plus the
                # ladder's conflict estimate so the bus can derive an ETA
                # from the live conflict rate.
                with progress.context(
                        bound=bound, engine=_ENGINE,
                        expected_conflicts=eta.expected_conflicts()):
                    step, candidate = bound_solver.solve_at(bound, time_budget_s)
            else:
                step, candidate = bound_solver.solve_at(bound, time_budget_s)
            attrs.update(status=step.status, conflicts=step.conflicts)
            if progress is not None:
                eta.observe(step.conflicts)
                rate = (step.conflicts / step.elapsed_s
                        if step.elapsed_s > 0 else 0.0)
                progress.emit("rung", bound=bound, engine=_ENGINE,
                              status=step.status, conflicts=step.conflicts,
                              conflicts_per_s=round(rate, 1),
                              elapsed_s=round(step.elapsed_s, 3))
            return step, candidate

    with _span(telemetry, "descent", modes=num_modes,
               engine=_ENGINE) as descent_attrs:
        if best_weight > 0:
            with _span(telemetry, "descent.prepare"):
                bound_solver.prepare(best_weight - 1)  # bounds only tighten
        while best_weight > 0:
            bound = best_weight - 1
            budget_s, expired = rung_budget()
            if expired:
                deadline_hit, target_bound = True, bound
                break
            step, candidate = solve_rung(bound, budget_s)
            steps.append(step)
            if candidate is not None:
                best_encoding = candidate
                best_weight = step.achieved_weight
                save_checkpoint()
                continue
            proved_optimal = step.status == "UNSAT"
            if not proved_optimal and deadline is not None \
                    and time.monotonic() >= deadline:
                deadline_hit, target_bound = True, bound
            break
        descent_attrs.update(weight=best_weight, proved_optimal=proved_optimal,
                             sat_calls=len(steps), degraded=deadline_hit)

    if deadline_hit:
        if progress is not None:
            progress.emit("descent.degraded", weight=best_weight,
                          target_bound=target_bound)
        if telemetry is not None:
            telemetry.counter(
                "repro_descent_degraded_total",
                "descents that returned best-so-far at their deadline",
            ).inc()
    elif proved_optimal and checkpoint is not None:
        # The optimum is proved (and will be cached as final): rung
        # progress has nothing left to resume.  Unproved returns keep
        # their checkpoint so a resubmission resumes from its best
        # encoding and completed rungs.
        checkpoint.clear()

    return DescentResult(
        encoding=best_encoding,
        weight=best_weight,
        proved_optimal=proved_optimal,
        steps=steps,
        construct_time_s=construct_time,
        solve_time_s=prior_solve_time + bound_solver.solve_time_s,
        preprocess_time_s=bound_solver.preprocess_time_s,
        proof_trace=bound_solver.last_unsat_trace,
        degraded=deadline_hit,
        target_bound=target_bound,
        resumed=resumed_cp is not None,
    )

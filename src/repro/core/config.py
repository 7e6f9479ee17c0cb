"""Configuration objects for the Fermihedral compiler."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Objective selector: minimize summed Majorana-string weight (Section 3.6).
HAMILTONIAN_INDEPENDENT = "hamiltonian-independent"
#: Objective selector: minimize the encoded-Hamiltonian weight (Section 3.7).
HAMILTONIAN_DEPENDENT = "hamiltonian-dependent"

#: Compile method: Hamiltonian-independent SAT descent (Section 3.6).
METHOD_INDEPENDENT = "independent"
#: Compile method: Hamiltonian-dependent "Full SAT" descent (Section 3.7).
METHOD_FULL_SAT = "full-sat"
#: Compile method: independent SAT optimum + annealed pairing (Section 4.2).
METHOD_ANNEALING = "sat+annealing"
#: All compile-method tags, as used by :class:`FermihedralCompiler.compile`
#: and the ``repro.store`` fingerprints.
COMPILE_METHODS = (METHOD_INDEPENDENT, METHOD_FULL_SAT, METHOD_ANNEALING)

#: :class:`FermihedralConfig` fields that choose an *execution strategy*
#: rather than a problem.  ``preprocess`` simplifies the CNF
#: satisfiability-preservingly per bound (models are reconstructed onto
#: the original variables), so given enough budget per SAT call it
#: changes only which of several equally-optimal models a run returns
#: (and how fast), never the achieved weight or the optimality proof.
#: ``proof`` is pure observation: it records what the solver did without
#: changing a single decision.  ``deadline_s`` is execution-only for the
#: same reason a time budget would be: it decides when a run stops
#: tightening, never what the optimum is, and a deadline-degraded result
#: is unproved.  ``repro.store.fingerprint`` excludes them from cache keys
#: so raw and preprocessed runs of one job share a cache entry (sound
#: because unproved results are warm-start seeds, never final hits).
EXECUTION_ONLY_FIELDS = ("preprocess", "proof", "deadline_s")


@dataclass(frozen=True)
class SolverBudget:
    """Resource limits for each SAT call inside the descent loop.

    ``None`` means unlimited.  When a call exhausts its budget the descent
    stops tightening and reports the best encoding found so far with
    ``proved_optimal = False`` — mirroring the paper's fixed-timeout
    handling of the final UNSAT proof (Section 5.5).
    """

    max_conflicts: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.max_conflicts is not None and self.max_conflicts < 0:
            raise ValueError("max_conflicts must be non-negative (or None)")
        if self.time_budget_s is not None and not self.time_budget_s > 0:
            raise ValueError("time_budget_s must be positive (or None)")


# repro-lint: worker-shipped
@dataclass(frozen=True)
class FermihedralConfig:
    """Switches selecting which constraints enter the SAT instance.

    Attributes:
        algebraic_independence: the paper's "Full SAT" (``True``) versus
            "SAT w/o Alg." (``False``) switch.  It no longer changes the
            instance: neither setting emits the power-set clauses of
            Section 3.4, because pairwise anticommutation already implies
            independence (the probability of a dependent model is exactly
            0, not Section 4.1's ``4^-N``).  Kept, with its default, so
            existing cache keys, batch files and job specs resolve
            unchanged; it still selects the result's method label.
        vacuum_preservation: emit the X/Y-pair clauses of Section 3.5.
        exact_vacuum: replace the paper's sufficient-condition witness with
            the exact (necessary-and-sufficient) vacuum constraint — equal
            flip masks per pair plus the mod-4 Y-count relation.  Slightly
            larger instances, but decoded solutions always truly satisfy
            ``a_j|0..0> = 0``.  Only meaningful when ``vacuum_preservation``
            is on.
        budget: per-SAT-call resource limits.
        qubit_weights: connectivity-weighted objective — per-qubit positive
            integer multipliers applied to every weight indicator, so the
            descent minimizes ``Σ w[q] · [operator at q ≠ I]`` instead of
            plain Pauli weight.  Derived from a device coupling graph by
            :func:`repro.hardware.cost.connectivity_weights`; ``None``
            keeps the paper's uniform objective.  Length must equal the
            mode count of the job using this config.
        preprocess: simplify the CNF (:mod:`repro.sat.preprocess` — unit
            propagation, subsumption, bounded variable elimination) before
            building the descent solver.
            Encoding variables and ladder selectors are frozen,
            and SAT models are reconstructed onto the original variables,
            so decoded encodings, achieved weights and optimality proofs
            are unchanged; only solve time drops.  ``False``
            (``--no-preprocess``) solves the raw instance.
        proof: capture a DRAT proof trace of the descent's optimality-
            proving UNSAT answer (:mod:`repro.sat.drat`).  The trace
            certifies the *original* CNF — preprocessing steps are logged
            too — and can be re-verified independently with ``repro
            verify-proof``.  Off by default: emission costs a little
            memory and time on UNSAT-heavy runs, and the artifact is only
            needed when the result must be auditable.
        deadline_s: wall-clock deadline for the whole descent, in seconds
            (``None`` = none).  Unlike ``budget.time_budget_s`` (a
            per-SAT-call limit), the deadline spans formula construction
            and every rung; on expiry the descent returns its best
            encoding so far marked ``degraded`` — graceful degradation,
            never an error — with the bound it was still chasing recorded
            as ``target_bound``.

        ``preprocess``, ``proof`` and ``deadline_s`` are
        execution-strategy knobs (:data:`EXECUTION_ONLY_FIELDS`): with
        enough budget they change only how fast the run reaches the same
        weight and proof, or what is recorded about it, so they are
        excluded from cache fingerprints.

    The descent itself has no knobs: it always runs Algorithm 1 from the
    baseline's weight with phases seeded from the best model so far.
    Cache keys still carry the fields that once chose otherwise, at the
    only values they can now have
    (:data:`repro.store.fingerprint.RETIRED_CONFIG_FIELDS`).
    """

    algebraic_independence: bool = True
    vacuum_preservation: bool = True
    exact_vacuum: bool = False
    budget: SolverBudget = field(default_factory=SolverBudget)
    qubit_weights: tuple[int, ...] | None = None
    preprocess: bool = True
    proof: bool = False
    deadline_s: float | None = None

    def __post_init__(self):
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.qubit_weights is not None:
            weights = tuple(int(weight) for weight in self.qubit_weights)
            if not weights or any(weight < 1 for weight in weights):
                raise ValueError("qubit_weights must be positive integers")
            object.__setattr__(self, "qubit_weights", weights)

    def with_qubit_weights(self, weights) -> "FermihedralConfig":
        """This config with a connectivity-weighted objective installed."""
        return dataclasses.replace(
            self, qubit_weights=None if weights is None else tuple(weights)
        )

    def with_parallelism(
        self,
        preprocess: bool | None = None,
        proof: bool | None = None,
    ) -> "FermihedralConfig":
        """This config with execution-strategy knobs overridden (``None``
        keeps the current value)."""
        return dataclasses.replace(
            self,
            preprocess=self.preprocess if preprocess is None else preprocess,
            proof=self.proof if proof is None else proof,
        )

    def with_deadline(self, deadline_s: float | None) -> "FermihedralConfig":
        """This config with a wall-clock descent deadline installed."""
        return dataclasses.replace(self, deadline_s=deadline_s)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Simulated-annealing parameters for Algorithm 2.

    Temperature decreases linearly from ``initial_temperature`` to
    ``final_temperature`` in steps of ``temperature_step``; each level
    performs ``iterations_per_step`` random pair swaps.
    """

    initial_temperature: float = 4.0
    final_temperature: float = 0.05
    temperature_step: float = 0.1
    iterations_per_step: int = 60
    boltzmann_constant: float = 1.0

    def temperatures(self) -> list[float]:
        levels = []
        temperature = self.initial_temperature
        while temperature >= self.final_temperature:
            levels.append(temperature)
            temperature -= self.temperature_step
        return levels

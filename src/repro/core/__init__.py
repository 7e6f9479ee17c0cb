"""Fermihedral core: SAT encoding, descent, annealing, verification."""

from repro.core.annealing import AnnealingResult, anneal_pairing, hamiltonian_weight_under_order
from repro.core.config import (
    COMPILE_METHODS,
    HAMILTONIAN_DEPENDENT,
    HAMILTONIAN_INDEPENDENT,
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    AnnealingSchedule,
    FermihedralConfig,
    SolverBudget,
)
from repro.core.descent import (
    DependentModelError,
    DescentResult,
    DescentStep,
    build_base_formula,
    descend,
    measured_weight,
)
from repro.core.encoder import OPERATOR_BITS, FermihedralEncoder
from repro.core.pipeline import (
    CompilationResult,
    FermihedralCompiler,
    solve_full_sat,
    solve_hamiltonian_independent,
    solve_sat_annealing,
)
from repro.core.verify import VerificationReport, verify_encoding

__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "COMPILE_METHODS",
    "CompilationResult",
    "DependentModelError",
    "DescentResult",
    "DescentStep",
    "FermihedralCompiler",
    "FermihedralConfig",
    "FermihedralEncoder",
    "HAMILTONIAN_DEPENDENT",
    "HAMILTONIAN_INDEPENDENT",
    "METHOD_ANNEALING",
    "METHOD_FULL_SAT",
    "METHOD_INDEPENDENT",
    "OPERATOR_BITS",
    "SolverBudget",
    "VerificationReport",
    "anneal_pairing",
    "build_base_formula",
    "descend",
    "hamiltonian_weight_under_order",
    "measured_weight",
    "solve_full_sat",
    "solve_hamiltonian_independent",
    "solve_sat_annealing",
    "verify_encoding",
]

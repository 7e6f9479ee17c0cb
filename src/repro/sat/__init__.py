"""SAT substrate: CNF construction, Tseitin gadgets, the totalizer
cardinality ladder, SatELite-style preprocessing, the flattened CDCL
solver, and DRAT proof logging/checking."""

from repro.sat.cnf import CnfFormula, evaluate_clause, evaluate_formula
from repro.sat.dpll import dpll_solve
from repro.sat.drat import (
    ProofCheckResult,
    ProofLog,
    ProofTrace,
    build_trace,
    check_drat,
    check_trace,
    parse_drat,
    serialize_drat,
)
from repro.sat.enumerate import enumerate_models
from repro.sat.preprocess import PreprocessResult, PreprocessStats, preprocess
from repro.sat.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    CdclSolver,
    SolveResult,
    SolverStats,
    luby,
    solve_formula,
)
from repro.sat.totalizer import add_totalizer_ladder
from repro.sat.tseitin import (
    assert_or_true,
    assert_xor_true,
    encode_and,
    encode_or,
    encode_or_many,
    encode_xor,
    encode_xor_many,
)

__all__ = [
    "SAT",
    "UNKNOWN",
    "UNSAT",
    "CdclSolver",
    "CnfFormula",
    "PreprocessResult",
    "PreprocessStats",
    "ProofCheckResult",
    "ProofLog",
    "ProofTrace",
    "SolveResult",
    "SolverStats",
    "add_totalizer_ladder",
    "assert_or_true",
    "assert_xor_true",
    "build_trace",
    "check_drat",
    "check_trace",
    "dpll_solve",
    "encode_and",
    "encode_or",
    "encode_or_many",
    "encode_xor",
    "encode_xor_many",
    "enumerate_models",
    "evaluate_clause",
    "evaluate_formula",
    "luby",
    "parse_drat",
    "preprocess",
    "serialize_drat",
    "solve_formula",
]

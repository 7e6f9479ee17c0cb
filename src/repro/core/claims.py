"""Proof claims: what a descent's DRAT certificate certifies.

A :class:`~repro.sat.drat.ProofTrace` shows that one CNF is
unsatisfiable under one assumption.  On its own that says nothing about
encodings: any unsatisfiable CNF has a checkable refutation.  The
trace's *claim* names the question the CNF asks — "no ``N``-mode
encoding under this objective, vacuum constraint and symmetry breaking
has weight at most ``bound``" — as plain JSON data:

``modes``
    the mode count ``N``;
``objective``
    ``"majorana"`` (summed string weight, Section 3.6) or
    ``"hamiltonian"`` (encoded-Hamiltonian weight, Section 3.7);
``monomials``
    for ``"hamiltonian"``, the Hamiltonian's Majorana monomials in the
    order the objective enumerates them (the set is the cache
    fingerprint's ``canonical_hamiltonian``; the order fixes the CNF);
    ``None`` otherwise;
``qubit_weights``
    the connectivity-weighted objective's multipliers, or ``None``;
``vacuum``
    ``"sufficient"`` (the paper's X/Y witness), ``"exact"`` or ``"none"``;
``symmetry``
    ``"column-lex"`` (the qubit columns ordered within each class of
    equal ``qubit_weights``, a single class when those are ``None`` or
    uniform) or ``"none"`` (no comparators, a valid claim under any
    weights); see :func:`repro.core.descent.symmetry_for`;
``max_bound``, ``bound``
    the width of the weight ladder and the refuted rung.

:func:`check_claim` rebuilds the CNF from the claim with the descent's
own builder and requires the artifact to match it exactly, with the
bound's selector as its only assumption and no axioms.  Only then does a
passing :func:`repro.sat.drat.check_trace` prove the claim.
"""

from __future__ import annotations

from repro.core.config import FermihedralConfig
from repro.core.descent import SYMMETRY_COLUMN_LEX, SYMMETRY_NONE, build_instance
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.fermion.majorana import MajoranaPolynomial
from repro.sat.drat import ProofCheckResult, check_trace

OBJECTIVE_MAJORANA = "majorana"
OBJECTIVE_HAMILTONIAN = "hamiltonian"
VACUUM_SUFFICIENT = "sufficient"
VACUUM_EXACT = "exact"
VACUUM_NONE = "none"

_CLAIM_KEYS = frozenset({
    "modes", "objective", "monomials", "qubit_weights", "vacuum",
    "symmetry", "max_bound", "bound",
})


def proof_claim(
    num_modes: int,
    config: FermihedralConfig,
    hamiltonian: FermionicHamiltonian | None,
    symmetry: str,
) -> dict:
    """The claim of a descent's instance, without its ladder width and
    bound (the descent adds those as it builds the ladder and refutes a
    rung)."""
    if not config.vacuum_preservation:
        vacuum = VACUUM_NONE
    elif config.exact_vacuum:
        vacuum = VACUUM_EXACT
    else:
        vacuum = VACUUM_SUFFICIENT
    return {
        "modes": num_modes,
        "objective": (OBJECTIVE_MAJORANA if hamiltonian is None
                      else OBJECTIVE_HAMILTONIAN),
        "monomials": (None if hamiltonian is None
                      else [list(monomial) for monomial in hamiltonian.monomials]),
        "qubit_weights": (None if config.qubit_weights is None
                          else list(config.qubit_weights)),
        "vacuum": vacuum,
        "symmetry": symmetry,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(claim) -> None:
    """Raise :class:`ValueError` unless ``claim`` is well formed."""
    if not isinstance(claim, dict) or set(claim) != _CLAIM_KEYS:
        raise ValueError("the claim does not have the claim fields")
    modes = claim["modes"]
    if not _is_int(modes) or modes < 1:
        raise ValueError("the claim's mode count is not a positive integer")
    objective, monomials = claim["objective"], claim["monomials"]
    if objective == OBJECTIVE_MAJORANA:
        if monomials is not None:
            raise ValueError("a majorana claim lists monomials")
    elif objective == OBJECTIVE_HAMILTONIAN:
        if not isinstance(monomials, list) or not monomials:
            raise ValueError("a hamiltonian claim lists no monomials")
        for monomial in monomials:
            if not (isinstance(monomial, list) and monomial
                    and all(_is_int(index) and 0 <= index < 2 * modes
                            for index in monomial)
                    and all(a < b for a, b in zip(monomial, monomial[1:]))):
                raise ValueError(f"malformed claim monomial {monomial!r}")
        if len({tuple(monomial) for monomial in monomials}) != len(monomials):
            raise ValueError("the claim repeats a monomial")
    else:
        raise ValueError(f"unknown claim objective {objective!r}")
    weights = claim["qubit_weights"]
    if weights is not None and not (
            isinstance(weights, list) and len(weights) == modes
            and all(_is_int(weight) and weight >= 1 for weight in weights)):
        raise ValueError("the claim's qubit weights are malformed")
    if claim["vacuum"] not in (VACUUM_SUFFICIENT, VACUUM_EXACT, VACUUM_NONE):
        raise ValueError(f"unknown claim vacuum mode {claim['vacuum']!r}")
    symmetry = claim["symmetry"]
    if symmetry not in (SYMMETRY_COLUMN_LEX, SYMMETRY_NONE):
        raise ValueError(f"unknown claim symmetry {symmetry!r}")
    max_bound, bound = claim["max_bound"], claim["bound"]
    if not (_is_int(max_bound) and _is_int(bound) and 0 <= bound <= max_bound):
        raise ValueError("the claim's bound is not a rung of its ladder")


def rebuild_claim(claim: dict):
    """``(formula, selectors)`` of the instance ``claim`` names, built
    exactly as :func:`repro.core.descent.descend` builds it.

    Raises :class:`ValueError` on a malformed claim.
    """
    _validate(claim)
    weights = claim["qubit_weights"]
    config = FermihedralConfig(
        vacuum_preservation=claim["vacuum"] != VACUUM_NONE,
        exact_vacuum=claim["vacuum"] == VACUUM_EXACT,
        qubit_weights=None if weights is None else tuple(weights),
    )
    hamiltonian = None
    if claim["objective"] == OBJECTIVE_HAMILTONIAN:
        hamiltonian = FermionicHamiltonian.from_majorana(
            "claim",
            MajoranaPolynomial({tuple(monomial): 1.0
                                for monomial in claim["monomials"]}),
            claim["modes"],
        )
    encoder, indicators = build_instance(claim["modes"], config, hamiltonian,
                                         claim["symmetry"])
    selectors = encoder.weight_ladder(indicators, claim["max_bound"],
                                      config.qubit_weights)
    return encoder.formula, selectors


def check_claim(trace) -> str | None:
    """Why ``trace`` does not certify its own claim, or ``None`` when its
    CNF, assumptions and axioms are exactly the claim's instance."""
    claim = trace.claim
    if claim is None:
        return "the artifact carries no claim"
    try:
        _validate(claim)
    except ValueError as error:
        return str(error)
    # The CNF holds 4N^2 encoding bits and a ladder at least max_bound
    # wide: refuse to build an instance larger than the one to compare.
    if max(4 * claim["modes"] ** 2, claim["max_bound"]) > trace.num_variables:
        return "the claim names an instance larger than the artifact's CNF"
    formula, selectors = rebuild_claim(claim)
    if formula.to_dimacs() != trace.cnf:
        return "the CNF is not the instance the claim names"
    if trace.axioms:
        return "the artifact adds axioms to the claim's instance"
    if tuple(trace.assumptions) != (selectors[claim["bound"]],):
        return "the assumption is not the claimed bound's selector"
    return None


def describe_claim(claim: dict) -> str:
    """One line for a checked claim, e.g. ``N=4 majorana weight ≥ 16``."""
    details = []
    if claim["objective"] == OBJECTIVE_HAMILTONIAN:
        details.append(f"{len(claim['monomials'])} monomials")
    if claim["qubit_weights"] is not None:
        details.append("qubit weights "
                       + ",".join(str(weight) for weight in claim["qubit_weights"]))
    if claim["vacuum"] != VACUUM_SUFFICIENT:
        details.append(f"vacuum {claim['vacuum']}")
    text = (f"N={claim['modes']} {claim['objective']} weight "
            f"≥ {claim['bound'] + 1}")
    return f"{text} ({', '.join(details)})" if details else text


def verify_proof(trace) -> tuple[str | None, ProofCheckResult]:
    """Check that ``trace`` certifies its claim, then replay its DRAT
    derivation — the one verifier behind ``repro verify-proof`` and
    :meth:`repro.service.client.ServiceClient.verify_proof`.

    Returns the claim as one line (``"unbound (format v1)"`` for an
    artifact that carries none) and the checker's verdict.  A claim that
    does not match the artifact fails before the checker runs, with a
    ``None`` claim line.
    """
    if trace.claim is None:
        return "unbound (format v1)", check_trace(trace)
    mismatch = check_claim(trace)
    if mismatch is not None:
        return None, ProofCheckResult(False, f"claim mismatch: {mismatch}")
    return describe_claim(trace.claim), check_trace(trace)

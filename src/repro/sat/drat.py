"""DRAT proof emission and an independent RUP/RAT proof checker.

Every optimality claim the compiler makes rests on an UNSAT answer from
our own CDCL solver.  This module makes those answers *auditable*: the
solver (and the preprocessor in front of it) logs every clause it adds
or deletes in DRAT — the standard clause-redundancy certificate format
of Wetzler, Heule & Hunt's DRAT-trim — and a small, stdlib-only checker
re-verifies the refutation with none of the solver's code in the loop.

Three layers live here:

* :class:`ProofLog` — the append-only event sink the solver and
  preprocessor write to.  ``add``/``delete`` record DRAT lines;
  ``axiom`` records clauses injected mid-run through
  ``CdclSolver.add_clause`` (e.g. blocking clauses).  Axioms are
  *hoisted into the checker's premise set* rather than logged as DRAT
  additions: RUP is monotone in the premise set, so a trace that checks
  against ``CNF + axioms`` is a valid refutation of that conjunction,
  which is exactly the formula the solver refuted.
* :class:`ProofTrace` — the self-contained, content-addressed artifact:
  the *original* DIMACS CNF, the assumption literals the refuted call
  was made under, the hoisted axioms, and the DRAT line stream.  An
  UNSAT-under-assumptions answer is certified by placing the assumption
  units on the premise side and refuting the conjunction.
* :func:`check_trace` / :func:`check_drat` — backward RUP/RAT checking
  with lazy core marking: the trace is replayed forward to the first
  empty-clause addition, then walked backward verifying only the
  additions that actually feed the refutation (the "core"), which is
  how real traces verify quickly.

Deletions are trusted, as in every DRAT checker: deleting a clause can
only weaken the premise set, so a refutation that checks *despite* the
deletions still refutes the original formula.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterable, Sequence

from repro.sat.cnf import CnfFormula

#: Format of artifacts that carry a :attr:`ProofTrace.claim`.  Version 1
#: artifacts (no claim) still read, check and keep their content address.
PROOF_FORMAT_VERSION = 2
_UNBOUND_FORMAT_VERSION = 1


class ProofLog:
    """Append-only DRAT event sink shared by the preprocessor and solver.

    The log is deliberately dumb — two lists — so that emission costs a
    method call and an append, nothing more.
    """

    __slots__ = ("lines", "axioms")

    def __init__(self):
        #: ``("a", lits)`` additions and ``("d", lits)`` deletions, in order.
        self.lines: list[tuple[str, tuple[int, ...]]] = []
        #: Clauses injected mid-run via ``add_clause`` — premise side.
        self.axioms: list[tuple[int, ...]] = []

    def add(self, literals: Iterable[int]) -> None:
        """Record a clause addition (a learnt or derived clause)."""
        self.lines.append(("a", tuple(literals)))

    def delete(self, literals: Iterable[int]) -> None:
        """Record a clause deletion (reduce-DB, simplification)."""
        self.lines.append(("d", tuple(literals)))

    def axiom(self, literals: Iterable[int]) -> None:
        """Record a clause added to the *problem* mid-run (premise side)."""
        self.axioms.append(tuple(literals))

    def clear(self) -> None:
        self.lines.clear()
        self.axioms.clear()

    def __len__(self) -> int:
        return len(self.lines)


def serialize_drat(lines: Sequence[tuple[str, tuple[int, ...]]]) -> str:
    """Render ``("a"/"d", lits)`` events as standard DRAT text."""
    out = []
    for tag, lits in lines:
        body = " ".join(str(lit) for lit in lits)
        if tag == "d":
            out.append(f"d {body} 0" if body else "d 0")
        else:
            out.append(f"{body} 0" if body else "0")
    return "\n".join(out) + ("\n" if out else "")


def parse_drat(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """Parse DRAT text back into ``("a"/"d", lits)`` events.

    Comments (``c ...``) and blank lines are ignored.  Raises
    :class:`ValueError` on malformed lines — a corrupted artifact must
    be *rejected*, never silently skipped.
    """
    steps: list[tuple[str, tuple[int, ...]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tag = "a"
        if line.startswith("d ") or line == "d":
            tag = "d"
            line = line[1:].strip()
        tokens = line.split()
        if not tokens or tokens[-1] != "0":
            raise ValueError(f"DRAT line missing terminating 0: {raw!r}")
        try:
            lits = tuple(int(tok) for tok in tokens[:-1])
        except ValueError as exc:
            raise ValueError(f"malformed DRAT line: {raw!r}") from exc
        if any(lit == 0 for lit in lits):
            raise ValueError(f"interior 0 in DRAT line: {raw!r}")
        steps.append((tag, lits))
    return steps


@dataclasses.dataclass(frozen=True)
class ProofTrace:
    """A self-contained, checkable UNSAT certificate for one solve call.

    ``cnf`` is the *original* formula (before preprocessing) in DIMACS;
    ``assumptions`` are the literals the refuted call assumed (premise
    units); ``axioms`` are clauses injected mid-run (premise side, see
    module docs); ``proof`` is the DRAT line stream ending in the empty
    clause.  ``meta`` carries human-facing context (bound, instance)
    and does not affect checking.

    ``claim`` (format v2) names what the refutation certifies, in plain
    JSON data, so a reader can rebuild the CNF from it and compare (see
    :mod:`repro.core.claims`).  It is part of the content address.  A
    trace without one is written, and reads back, as format v1.
    """

    num_variables: int
    cnf: str
    assumptions: tuple[int, ...] = ()
    axioms: tuple[tuple[int, ...], ...] = ()
    proof: str = ""
    meta: dict = dataclasses.field(default_factory=dict)
    claim: dict | None = None

    def to_dict(self) -> dict:
        data = {
            "proof_format_version": (
                _UNBOUND_FORMAT_VERSION if self.claim is None
                else PROOF_FORMAT_VERSION
            ),
            "num_variables": self.num_variables,
            "cnf": self.cnf,
            "assumptions": list(self.assumptions),
            "axioms": [list(clause) for clause in self.axioms],
            "proof": self.proof,
            "meta": dict(self.meta),
        }
        if self.claim is not None:
            data["claim"] = dict(self.claim)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProofTrace":
        """Read an artifact written by :meth:`to_dict`.

        Raises :class:`ValueError` for anything else — a non-object, an
        unknown version, a missing required field, or a field of the
        wrong type — so every reader can fail closed on one exception.
        """
        if not isinstance(data, dict):
            raise ValueError("proof artifact is not a JSON object")
        version = data.get("proof_format_version")
        if version not in (_UNBOUND_FORMAT_VERSION, PROOF_FORMAT_VERSION):
            raise ValueError(f"unsupported proof format version: {version!r}")
        for name in ("num_variables", "cnf"):
            if name not in data:
                raise ValueError(f"proof artifact has no {name!r} field")
        claim = data.get("claim")
        if version == PROOF_FORMAT_VERSION and not isinstance(claim, dict):
            raise ValueError("format v2 proof artifact has no claim object")
        if version == _UNBOUND_FORMAT_VERSION and claim is not None:
            raise ValueError("format v1 proof artifact carries a claim")
        return cls(
            num_variables=_typed(data["num_variables"], int, "num_variables"),
            cnf=_typed(data["cnf"], str, "cnf"),
            assumptions=_literals(data.get("assumptions", ()), "assumptions"),
            axioms=tuple(
                _literals(clause, "axioms")
                for clause in _typed(data.get("axioms", ()), (list, tuple),
                                     "axioms")
            ),
            proof=_typed(data.get("proof", ""), str, "proof"),
            meta=dict(_typed(data.get("meta", {}), dict, "meta")),
            claim=None if claim is None else dict(claim),
        )

    def sha256(self) -> str:
        """Content address of the artifact (canonical JSON, like cache keys)."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def num_proof_lines(self) -> int:
        return sum(1 for line in self.proof.splitlines() if line.strip())


def _typed(value, kind, name: str):
    """``value`` if it is a ``kind`` (never a bool standing in for an int)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"proof artifact field {name!r} has the wrong type")
    return value


def _literals(values, name: str) -> tuple[int, ...]:
    """A literal list of an artifact, as a tuple of ints."""
    return tuple(_typed(value, int, name)
                 for value in _typed(values, (list, tuple), name))


def build_trace(
    formula: CnfFormula,
    log: ProofLog,
    assumptions: Iterable[int] = (),
    meta: dict | None = None,
    claim: dict | None = None,
) -> ProofTrace:
    """Package a refutation log into a checkable :class:`ProofTrace`.

    The empty clause is appended here, not emitted by the solver: an
    incremental solver refutes *different assumption sets* against one
    clause database, so the empty clause belongs to the (formula,
    assumptions) pair of the specific refuted call — which is exactly
    what this function binds together.
    """
    lines = list(log.lines)
    lines.append(("a", ()))
    return ProofTrace(
        num_variables=formula.num_variables,
        cnf=formula.to_dimacs(),
        assumptions=tuple(assumptions),
        axioms=tuple(log.axioms),
        proof=serialize_drat(lines),
        meta=dict(meta or {}),
        claim=claim,
    )


@dataclasses.dataclass(frozen=True)
class ProofCheckResult:
    """Outcome of a checker run: verdict, failure reason, work counters."""

    ok: bool
    reason: str | None = None
    steps: int = 0
    checked_additions: int = 0

    def __bool__(self) -> bool:
        return self.ok


class _DratChecker:
    """Backward RUP/RAT checker with lazy core marking.

    Clauses are id-indexed: premises first, then forward-replayed
    additions.  Unit propagation is occurrence-list based with activity
    filtering — simple, allocation-light, and entirely independent of
    the solver's watched-literal machinery (the point of the exercise).
    """

    def __init__(self, premises: Sequence[tuple[int, ...]]):
        self.clauses: list[tuple[int, ...]] = [tuple(c) for c in premises]
        self.active = bytearray(b"\x01" * len(self.clauses))
        self.occ: dict[int, list[int]] = {}
        self.units: set[int] = set()
        self.empties: set[int] = set()
        for cid, clause in enumerate(self.clauses):
            self._index(cid, clause)
        self.marked: set[int] = set()

    def _index(self, cid: int, clause: tuple[int, ...]) -> None:
        for lit in clause:
            self.occ.setdefault(lit, []).append(cid)
        if len(clause) == 1:
            self.units.add(cid)
        elif not clause:
            self.empties.add(cid)

    def _new_clause(self, clause: tuple[int, ...]) -> int:
        cid = len(self.clauses)
        self.clauses.append(clause)
        self.active.append(1)
        self._index(cid, clause)
        return cid

    def _set_active(self, cid: int, on: bool) -> None:
        self.active[cid] = 1 if on else 0
        if len(self.clauses[cid]) == 1:
            (self.units.add if on else self.units.discard)(cid)

    # -- unit propagation --------------------------------------------------

    def _propagate(self, seeds: Iterable[int]) -> tuple[int | None, dict, dict]:
        """UP from ``seeds`` (assumed true) plus all active unit clauses.

        Returns ``(conflict_clause_id, value, reason)``; the conflict id
        is ``None`` when a fixpoint is reached without conflict.  Seeds
        have reason ``None``; propagated literals record the clause that
        forced them, which is what core marking walks.
        """
        value: dict[int, bool] = {}
        reason: dict[int, int | None] = {}
        trail: list[int] = []

        for cid in self.empties:
            if self.active[cid]:
                return cid, value, reason

        def assign(lit: int, why: int | None) -> int | None:
            var = abs(lit)
            want = lit > 0
            have = value.get(var)
            if have is None:
                value[var] = want
                reason[var] = why
                trail.append(lit)
                return None
            if have == want:
                return None
            return why if why is not None else reason.get(var)

        for lit in seeds:
            conflict = assign(lit, None)
            if conflict is not None:
                return conflict, value, reason
        for cid in self.units:
            if not self.active[cid]:
                continue
            conflict = assign(self.clauses[cid][0], cid)
            if conflict is not None:
                return conflict, value, reason
        head = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            for cid in self.occ.get(-lit, ()):
                if not self.active[cid]:
                    continue
                clause = self.clauses[cid]
                unassigned = None
                open_count = 0
                satisfied = False
                for other in clause:
                    have = value.get(abs(other))
                    if have is None:
                        unassigned = other
                        open_count += 1
                        if open_count > 1:
                            break
                    elif have == (other > 0):
                        satisfied = True
                        break
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return cid, value, reason
                conflict = assign(unassigned, cid)
                if conflict is not None:
                    return conflict, value, reason
        return None, value, reason

    def _mark_core(self, conflict: int, reason: dict[int, int | None]) -> None:
        stack = [conflict]
        while stack:
            cid = stack.pop()
            if cid in self.marked:
                continue
            self.marked.add(cid)
            for lit in self.clauses[cid]:
                why = reason.get(abs(lit))
                if why is not None and why not in self.marked:
                    stack.append(why)

    def _check_rup(self, lits: tuple[int, ...]) -> bool:
        seen = set(lits)
        if any(-lit in seen for lit in seen):
            return True  # tautologies are redundant unconditionally
        conflict, _, reason = self._propagate([-lit for lit in lits])
        if conflict is None:
            return False
        self._mark_core(conflict, reason)
        return True

    def _check_rat(self, lits: tuple[int, ...]) -> bool:
        """RAT on the first literal, per the DRAT convention."""
        if not lits:
            return False
        pivot = lits[0]
        rest = lits[1:]
        for cid in self.occ.get(-pivot, ()):
            if not self.active[cid]:
                continue
            other = tuple(l for l in self.clauses[cid] if l != -pivot)
            resolvent = lits + other
            seen = set(resolvent)
            if any(-l in seen for l in seen):
                continue  # tautological resolvent
            if not self._check_rup(tuple(dict.fromkeys(rest + other))):
                return False
            self.marked.add(cid)
        return True

    # -- main drive --------------------------------------------------------

    def run(self, steps: Sequence[tuple[str, tuple[int, ...]]]) -> ProofCheckResult:
        by_content: dict[tuple[int, ...], list[int]] = {}
        for cid, clause in enumerate(self.clauses):
            by_content.setdefault(tuple(sorted(set(clause))), []).append(cid)

        # Forward replay, truncated at the first empty-clause addition —
        # the preprocessor may already have derived the refutation, in
        # which case the solver's lines after it are irrelevant.
        replay: list[tuple[str, int | None]] = []
        found_empty = False
        for tag, lits in steps:
            if tag == "a":
                if not lits:
                    found_empty = True
                    break
                cid = self._new_clause(lits)
                by_content.setdefault(tuple(sorted(set(lits))), []).append(cid)
                replay.append(("a", cid))
            else:
                key = tuple(sorted(set(lits)))
                stack = by_content.get(key)
                cid = None
                if stack:
                    cid = stack.pop()
                    self._set_active(cid, False)
                replay.append(("d", cid))
        if not found_empty:
            return ProofCheckResult(
                False, "proof does not derive the empty clause", len(steps), 0
            )

        # The refutation itself: UP on the final active set must conflict.
        conflict, _, reason = self._propagate(())
        if conflict is None:
            return ProofCheckResult(
                False,
                "empty clause is not implied by unit propagation",
                len(steps),
                0,
            )
        self._mark_core(conflict, reason)

        # Backward pass: verify only core-marked additions, growing the
        # core as each verification marks its own antecedents.
        checked = 0
        for tag, cid in reversed(replay):
            if tag == "d":
                if cid is not None:
                    self._set_active(cid, True)
                continue
            self._set_active(cid, False)
            if cid not in self.marked:
                continue
            checked += 1
            lits = self.clauses[cid]
            if not self._check_rup(lits) and not self._check_rat(lits):
                return ProofCheckResult(
                    False,
                    "clause {} is neither RUP nor RAT".format(
                        " ".join(map(str, lits))
                    ),
                    len(steps),
                    checked,
                )
        return ProofCheckResult(True, None, len(steps), checked)


def check_drat(
    premises: Sequence[Sequence[int]],
    steps: Sequence[tuple[str, tuple[int, ...]]],
) -> ProofCheckResult:
    """Check a DRAT refutation of ``premises`` (clauses, axioms, units)."""
    return _DratChecker([tuple(c) for c in premises]).run(steps)


def check_trace(trace: ProofTrace) -> ProofCheckResult:
    """Validate and check a :class:`ProofTrace` artifact end to end.

    Structural validation (literal ranges, DRAT syntax) happens first so
    a corrupted artifact is rejected with a reason rather than crashing
    or — worse — vacuously passing.
    """
    try:
        formula = CnfFormula.from_dimacs(trace.cnf)
    except (ValueError, KeyError) as exc:
        return ProofCheckResult(False, f"malformed CNF: {exc}")
    if formula.num_variables != trace.num_variables:
        return ProofCheckResult(
            False,
            "num_variables disagrees with the embedded CNF "
            f"({trace.num_variables} vs {formula.num_variables})",
        )
    limit = trace.num_variables

    def in_range(lits: Iterable[int]) -> bool:
        return all(lit != 0 and abs(lit) <= limit for lit in lits)

    if not in_range(trace.assumptions):
        return ProofCheckResult(False, "assumption literal out of range")
    for clause in trace.axioms:
        if not clause or not in_range(clause):
            return ProofCheckResult(False, "axiom clause malformed")
    try:
        steps = parse_drat(trace.proof)
    except ValueError as exc:
        return ProofCheckResult(False, f"malformed DRAT: {exc}")
    for _, lits in steps:
        if not in_range(lits):
            return ProofCheckResult(False, "proof literal out of range")

    premises: list[tuple[int, ...]] = list(formula.clauses())
    premises.extend(trace.axioms)
    premises.extend((lit,) for lit in trace.assumptions)
    result = check_drat(premises, steps)
    return dataclasses.replace(result, steps=len(steps))

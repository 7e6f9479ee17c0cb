"""CNF simplification (SatELite-style) with model reconstruction.

Modern SAT solvers owe much of their speed to formula preprocessing
(Eén & Biere 2005): the Tseitin-heavy instances the Fermihedral encoder
emits are full of single-use gate variables, subsumed clauses and
root-level units, and shrinking the formula before search multiplies
every downstream engine — the solver and the incremental descent ladder
both propagate over the simplified clause database.

Techniques, applied to fixpoint (bounded by ``max_rounds``):

* **root unit propagation** — unit clauses fix their variable; satisfied
  clauses are dropped and falsified literals removed everywhere.
* **pure-literal elimination** — a variable occurring with one polarity
  only is the degenerate case of variable elimination below (its
  resolvent set is empty).
* **subsumption and self-subsuming resolution** — a clause ``C ⊆ D``
  deletes ``D``; a clause ``C = {l} ∪ A`` with ``D ⊇ {-l} ∪ A``
  strengthens ``D`` to ``D \\ {-l}``.  Both kinds of partner turn up in
  one signature-filtered scan over the occurrences of ``C``'s two rarest
  literals (see :meth:`_Simplifier.subsumption_round`).
* **equivalent-literal substitution** — strongly connected components of
  the binary implication graph are collapsed onto one representative per
  class.  Tseitin instances are full of these: every unit-forced XOR
  output (the encoder's anticommutativity constraints) turns its gate
  definition into a pair of equivalences.
* **bounded variable elimination (NiVER/SatELite)** — a variable whose
  non-tautological resolvent set is no larger than the clause set it
  replaces is resolved away.  A sweep looks only at *dirty* variables,
  those whose occurrence lists changed since the last look: any other
  would be rejected again.

**Work done once.**  Each later round revisits only what earlier rounds
changed, yet the output — simplified clauses in order, reconstruction
records, stats and DRAT lines — is identical to that of full passes.
The test suite keeps the full passes as a reference and checks this.

**Frozen variables.**  Simplification must not outrun the caller's
interface to the formula: any variable that later appears in solver
*assumptions* (the descent ladder's bound selectors), in incrementally
added clauses (e.g. blocking clauses over the encoding variables), or
in phase hints must be declared ``frozen``.  Frozen variables are never
eliminated, and when unit propagation fixes one at the root its unit
clause is re-emitted into the simplified formula, so a later assumption
of the opposite polarity still (correctly) answers UNSAT instead of
silently contradicting the reconstruction.

**Model reconstruction.**  Eliminated variables vanish from the
simplified formula, so a model of it says nothing about them (the solver
reports arbitrary values).  :meth:`PreprocessResult.reconstruct` replays
the elimination trail backwards — fixed variables take their forced
value, eliminated variables take whatever value satisfies their saved
clauses — yielding a model of the *original* formula.  Decoding
(:meth:`repro.core.encoder.FermihedralEncoder.decode`) therefore runs on
reconstructed models and never observes the simplification.

**Once per process.**  The instance depends only on the mode count, the
objective, the vacuum constraint and the qubit weights, so a long-lived
process keeps handing the same CNF in again: one Hamiltonian after
another on a device, one budget after another in a service.
:func:`preprocess` keeps its last :data:`MEMO_CAPACITY` answers in a
least-recently-used memo under one module lock.  The key is the exact
input, compared element by element and never by digest alone: the
variable count, every clause in order, the frozen set, ``max_rounds`` and
``bve_occurrence_limit``.  An entry holds the output compacted into flat
int arrays (simplified clauses, reconstruction records, DRAT lines), and
a hit rebuilds a fresh :class:`PreprocessResult` from them that equals
the one a cold run returns.  A caller passing a ``proof`` log gets the
DRAT lines the entry was built with; an entry built without a log never
serves such a caller, and the cold run that replaces it records them.
:func:`clear_memo` empties the memo.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Sequence

from repro.sat.cnf import CnfFormula

#: Per-variable occurrence cap for the variable-elimination scan; a
#: variable busier than this is never a good elimination candidate and
#: checking it would make the resolvent scan quadratic.
DEFAULT_BVE_OCCURRENCE_LIMIT = 20

#: The occurrence set of a literal no clause holds.
_NONE: frozenset[int] = frozenset()

#: Entries of the :func:`preprocess` memo.  A process that alternates
#: between a few instances (one per device, plus a small warm-up job)
#: keeps all of them; each entry holds a few hundred kB at N=6.
MEMO_CAPACITY = 4


@dataclass
class PreprocessStats:
    """What the pipeline did, for logs and benchmark output."""

    original_variables: int = 0
    original_clauses: int = 0
    simplified_clauses: int = 0
    fixed_variables: int = 0
    eliminated_variables: int = 0
    substituted_variables: int = 0
    subsumed_clauses: int = 0
    strengthened_clauses: int = 0
    rounds: int = 0
    unsat: bool = False

    def summary(self) -> str:
        return (
            f"{self.original_clauses} -> {self.simplified_clauses} clauses "
            f"({self.fixed_variables} fixed, "
            f"{self.eliminated_variables} eliminated, "
            f"{self.substituted_variables} substituted, "
            f"{self.subsumed_clauses} subsumed, "
            f"{self.strengthened_clauses} strengthened, "
            f"{self.rounds} rounds)"
        )


class PreprocessResult:
    """A simplified formula plus the recipe for undoing it on models.

    The simplified :attr:`formula` shares the original's variable pool
    (``num_variables`` is unchanged), so literals, assumptions and added
    clauses keep their meaning; only the clause set shrinks.
    """

    def __init__(
        self,
        formula: CnfFormula,
        records: list[tuple],
        stats: PreprocessStats,
        frozen: frozenset[int],
    ):
        self.formula = formula
        self.stats = stats
        self.frozen = frozen
        self._records = records

    @property
    def unsat(self) -> bool:
        """True when preprocessing already refuted the formula."""
        return self.stats.unsat

    def reconstruct(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend a model of the simplified formula to the original one.

        The input is not mutated.  Values the solver reported for
        eliminated variables are overwritten — they were unconstrained in
        the simplified formula and only the replayed elimination trail
        knows a value consistent with the original clauses.
        """
        extended = dict(model)
        for record in reversed(self._records):
            kind, variable, payload = record
            if kind == "fixed":
                extended[variable] = payload
                continue
            if kind == "equiv":
                representative = extended.get(abs(payload), False)
                extended[variable] = representative if payload > 0 else not representative
                continue
            # Eliminated variable: any saved clause not already satisfied
            # by the other variables forces the polarity that satisfies
            # it; if all are satisfied either value works (False chosen).
            value = False
            for clause in payload:
                satisfied = False
                forced = False
                for literal in clause:
                    other = abs(literal)
                    if other == variable:
                        forced = literal > 0
                        continue
                    if extended.get(other, False) == (literal > 0):
                        satisfied = True
                        break
                if not satisfied:
                    value = forced
                    if value:
                        break
            extended[variable] = value
        return extended


class _Simplifier:
    """Mutable working state of one preprocessing run.

    When ``proof`` is given, every clause the simplifier derives is
    emitted as a DRAT addition *before* the clause it replaces is
    emitted as a deletion, so an independent checker replaying the log
    against the **original** formula always finds the justifying clauses
    still active.  Each technique's additions are RUP by construction:
    strengthened clauses via the unit (or the self-subsuming partner)
    that justified them, substituted clauses via the equivalence
    binaries (emitted for *all* planned pairs before any rewriting, while
    the implication paths that prove them are still intact), elimination
    resolvents via their two parents.  Units are never deleted.
    """

    def __init__(self, formula: CnfFormula, frozen: frozenset[int], proof=None):
        self.num_variables = formula.num_variables
        self.frozen = frozen
        self.proof = proof
        self.clauses: list[set[int] | None] = []
        self.touched: list[int] = []  # clauses new/changed since last subsumption
        self.occurs: dict[int, set[int]] = {}
        # dirty[v]: v's occurrence lists changed since BVE last looked at
        # v.  Everything starts dirty, so the first sweep visits all.
        self.dirty = bytearray(b"\x01") * (formula.num_variables + 1)
        self.fixed: dict[int, bool] = {}
        self.unit_queue: list[int] = []
        self.records: list[tuple] = []
        self.stats = PreprocessStats(
            original_variables=formula.num_variables,
            original_clauses=formula.num_clauses,
        )
        for clause in formula.clauses():
            literals = set(clause)
            if any(-literal in literals for literal in literals):
                continue  # tautology
            if len(literals) == 1:
                self.unit_queue.append(next(iter(literals)))
                continue
            self._add_clause(literals)

    # -- clause bookkeeping ---------------------------------------------------

    # Every change to a clause marks all of its variables dirty: a clause
    # is in the occurrence lists of each of its literals, and BVE's verdict
    # on a variable depends on exactly those lists and their clauses.

    def _add_clause(self, literals: set[int]) -> int:
        index = len(self.clauses)
        self.clauses.append(literals)
        self.touched.append(index)
        dirty = self.dirty
        for literal in literals:
            self.occurs.setdefault(literal, set()).add(index)
            dirty[abs(literal)] = 1
        return index

    def _remove_clause(self, index: int) -> None:
        literals = self.clauses[index]
        if literals is None:
            return
        self.clauses[index] = None
        dirty = self.dirty
        for literal in literals:
            dirty[abs(literal)] = 1
            bucket = self.occurs.get(literal)
            if bucket is not None:
                bucket.discard(index)

    def _unlink_literal(self, index: int, literal: int) -> None:
        clause = self.clauses[index]
        dirty = self.dirty
        for other in clause:
            dirty[abs(other)] = 1
        clause.discard(literal)
        bucket = self.occurs.get(literal)
        if bucket is not None:
            bucket.discard(index)

    # -- unit propagation -----------------------------------------------------

    def propagate_units(self) -> bool:
        """Apply queued root units to fixpoint; False on refutation."""
        proof = self.proof
        while self.unit_queue:
            literal = self.unit_queue.pop()
            variable = abs(literal)
            value = literal > 0
            known = self.fixed.get(variable)
            if known is not None:
                if known != value:
                    if proof is not None:
                        # Both polarities are active units: UP refutes.
                        proof.add(())
                    self.stats.unsat = True
                    return False
                continue
            self.fixed[variable] = value
            self.stats.fixed_variables += 1
            for index in list(self.occurs.get(literal, ())):
                if proof is not None and self.clauses[index] is not None:
                    proof.delete(sorted(self.clauses[index]))
                self._remove_clause(index)
            for index in list(self.occurs.get(-literal, ())):
                old = sorted(self.clauses[index]) if proof is not None else None
                self._unlink_literal(index, -literal)
                remaining = self.clauses[index]
                if not remaining:
                    if proof is not None:
                        proof.add(())
                    self.stats.unsat = True
                    return False
                if proof is not None:
                    proof.add(sorted(remaining))
                    proof.delete(old)
                if len(remaining) == 1:
                    self.unit_queue.append(next(iter(remaining)))
                    # Bookkeeping removal only: the emitted unit addition
                    # stays active in the checker (units are never deleted).
                    self._remove_clause(index)
        return True

    # -- subsumption ----------------------------------------------------------

    def subsumption_round(self) -> bool:
        """Queue-driven backward subsumption + self-subsuming resolution.

        Only clauses created or changed since the previous round are used
        as subsumers (backward subsumption); the first round seeds the
        queue with everything.  Returns True when any clause was removed
        or strengthened.

        A hit for a subsumer ``C`` holds every literal of ``C`` but at
        most one, ``l``: a superset ``D ⊇ C``, or a self-subsumption
        partner ``D ⊇ (C \\ {l}) ∪ {-l}``.  So with ``r1`` and ``r2``
        the two rarest literals of ``C``, supersets and partners for
        ``l ∉ {r1, r2}`` lie in ``occurs[r1] & occurs[r2]``, partners for
        ``l = r1`` in ``occurs[-r1] & occurs[r2]``, and partners for
        ``l = r2`` in ``occurs[r1] & occurs[-r2]``.  Whether ``D`` is a
        hit depends on ``C`` and ``D`` alone, and applying one hit never
        makes or unmakes another: a ``D`` is a superset or a partner for
        one ``l`` at most, and a strengthened ``D`` lacks ``l`` itself.
        Supersets are removed in the order a scan of ``occurs[r1]`` meets
        them, and the partners for each ``l`` of ``C`` are applied in the
        order a scan of ``occurs[-l]`` meets them.
        """
        changed = False
        proof = self.proof
        clauses = self.clauses
        occurs = self.occurs
        queue = [index for index in self.touched if clauses[index] is not None]
        self.touched = []
        while queue:
            index = queue.pop()
            clause = clauses[index]
            if clause is None:
                continue
            size = len(clause)
            # The stable sort keeps the first of equally rare literals.
            first, second = sorted(
                clause, key=lambda lit: len(occurs.get(lit, ())))[:2]
            with_first = occurs[first]
            with_second = occurs[second]
            supersets: list[int] = []
            partners: dict[int, list[int]] = {}  # l -> clauses holding -l
            for other_index in with_first & with_second:
                other = clauses[other_index]
                if other_index == index or len(other) < size:
                    continue
                outside = [lit for lit in clause if lit not in other]
                if not outside:
                    supersets.append(other_index)
                elif len(outside) == 1 and -outside[0] in other:
                    partners.setdefault(outside[0], []).append(other_index)
            for literal, candidates in (
                    (first, occurs.get(-first, _NONE) & with_second),
                    (second, with_first & occurs.get(-second, _NONE))):
                for other_index in candidates:
                    other = clauses[other_index]
                    if len(other) >= size and all(
                            lit in other for lit in clause if lit != literal):
                        partners.setdefault(literal, []).append(other_index)
            if len(supersets) > 1:
                wanted = set(supersets)
                supersets = [i for i in with_first if i in wanted]
            for other_index in supersets:
                if proof is not None:
                    proof.delete(sorted(clauses[other_index]))
                self._remove_clause(other_index)
                self.stats.subsumed_clauses += 1
                changed = True
            if not partners:
                continue
            # Self-subsuming resolution: C = A ∪ {l}, D ⊇ A ∪ {-l}.
            for literal in clause:
                hits = partners.get(literal)
                if hits is None:
                    continue
                if len(hits) > 1:
                    wanted = set(hits)
                    hits = [i for i in occurs[-literal] if i in wanted]
                for other_index in hits:
                    other = clauses[other_index]
                    old = sorted(other) if proof is not None else None
                    self._unlink_literal(other_index, -literal)
                    self.stats.strengthened_clauses += 1
                    changed = True
                    if proof is not None:
                        proof.add(sorted(other))
                        proof.delete(old)
                    if len(other) == 1:
                        self.unit_queue.append(next(iter(other)))
                        self._remove_clause(other_index)
                    else:
                        queue.append(other_index)
                        self.touched.append(other_index)
        return changed

    # -- equivalent-literal substitution --------------------------------------

    def _binary_implication_graph(self) -> dict[int, list[int]]:
        """Edges ``-a -> b`` and ``-b -> a`` for every binary clause."""
        graph: dict[int, list[int]] = {}
        for clause in self.clauses:
            if clause is None or len(clause) != 2:
                continue
            first, second = clause
            graph.setdefault(-first, []).append(second)
            graph.setdefault(-second, []).append(first)
        return graph

    @staticmethod
    def _strongly_connected(graph: dict[int, list[int]]) -> dict[int, int]:
        """Iterative Tarjan; maps each literal to its component id."""
        index_of: dict[int, int] = {}
        low: dict[int, int] = {}
        component: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = 0
        components = 0
        for root in graph:
            if root in index_of:
                continue
            work = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                successors = graph.get(node, ())
                while edge_index < len(successors):
                    successor = successors[edge_index]
                    edge_index += 1
                    if successor not in index_of:
                        work[-1] = (node, edge_index)
                        work.append((successor, 0))
                        advanced = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index_of[successor])
                if advanced:
                    continue
                work.pop()
                if low[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component[member] = components
                        if member == node:
                            break
                    components += 1
                if work:
                    parent, _ = work[-1]
                    low[parent] = min(low[parent], low[node])
        return component

    def substitute_equivalences(self) -> bool:
        """Collapse binary-implication SCCs onto one representative each.

        Frozen variables are never rewritten (their literals must keep
        their meaning for later assumptions/clauses); they are preferred
        as representatives instead.  Returns True when any variable was
        substituted.
        """
        graph = self._binary_implication_graph()
        if not graph:
            return False
        component = self._strongly_connected(graph)
        classes: dict[int, list[int]] = {}
        for literal, comp in component.items():
            classes.setdefault(comp, []).append(literal)

        # Phase 1: plan every substitution (and detect refuted classes)
        # before rewriting anything.  Proof emission depends on this
        # split: the equivalence binaries ``v ≡ r`` are RUP through the
        # binary implication paths of the *untouched* clause set, and a
        # substitution performed early would cut the paths later pairs
        # need.
        plans: list[tuple[int, int]] = []  # (variable, replacement)
        substituted: set[int] = set()  # each class appears twice (mirrored)
        for members in classes.values():
            if len(members) < 2:
                continue
            variables = {abs(literal) for literal in members}
            if len(variables) < len(members):
                # v and -v share a component: the formula is refuted.
                if self.proof is not None:
                    contradicted = next(
                        lit for lit in members if -lit in members
                    )
                    self.proof.add((-contradicted,))
                    self.proof.add((contradicted,))
                    self.proof.add(())
                self.stats.unsat = True
                return False
            # Deterministic representative: frozen first, then smallest.
            representative = min(
                members, key=lambda lit: (abs(lit) not in self.frozen, abs(lit), lit < 0)
            )
            for literal in members:
                variable = abs(literal)
                if literal == representative or variable in self.frozen:
                    continue
                if variable in self.fixed or variable in substituted:
                    continue
                substituted.add(variable)
                # literal ≡ representative, so  v ≡ ±representative.
                replacement = representative if literal > 0 else -representative
                plans.append((variable, replacement))
        if self.proof is not None:
            for variable, replacement in plans:
                self.proof.add((-variable, replacement))
                self.proof.add((variable, -replacement))

        # Phase 2: perform the planned rewrites.
        changed = False
        for variable, replacement in plans:
            self.records.append(("equiv", variable, replacement))
            self.stats.substituted_variables += 1
            self._substitute(variable, replacement)
            changed = True
            if self.stats.unsat:
                return changed
        return changed

    def _substitute(self, variable: int, replacement: int) -> None:
        """Rewrite every occurrence of ``variable`` with ``replacement``."""
        proof = self.proof
        for literal, new_literal in ((variable, replacement), (-variable, -replacement)):
            for index in list(self.occurs.get(literal, ())):
                clause = self.clauses[index]
                if clause is None:
                    continue
                old = sorted(clause) if proof is not None else None
                self._unlink_literal(index, literal)
                if new_literal in clause:
                    pass  # duplicate collapses
                elif -new_literal in clause:
                    if proof is not None:
                        proof.delete(old)
                    self._remove_clause(index)  # tautology
                    continue
                else:
                    clause.add(new_literal)
                    self.occurs.setdefault(new_literal, set()).add(index)
                    self.dirty[abs(new_literal)] = 1
                if proof is not None:
                    # RUP through the equivalence binary lit -> new_literal
                    # emitted before any rewriting, plus the old clause.
                    proof.add(sorted(clause))
                    proof.delete(old)
                if len(clause) == 1:
                    self.unit_queue.append(next(iter(clause)))
                    self._remove_clause(index)
                else:
                    self.touched.append(index)

    # -- bounded variable elimination ----------------------------------------

    def eliminate_variables(self, occurrence_limit: int) -> bool:
        """One NiVER sweep over the dirty variables, in ascending order;
        pure literals fall out as the zero-resolvent case.  Returns True
        when any variable was eliminated.

        A clean variable's occurrence lists and their clauses are the ones
        BVE last rejected it on, so looking again would reject it again.
        A variable dirtied during the sweep is visited later in the same
        sweep when it lies ahead of the cursor, else in the next one, as
        a full sweep would.
        """
        changed = False
        dirty = self.dirty
        # Variables of the unit resolvents this sweep queued: a queued
        # unit is in no occurrence list until propagation, so eliminating
        # its variable would let reconstruction overwrite the unit.
        pending: set[int] = set()
        for variable in range(1, self.num_variables + 1):
            if not dirty[variable]:
                continue
            dirty[variable] = 0
            if (variable in self.frozen or variable in self.fixed
                    or variable in pending):
                continue
            pos = self.occurs.get(variable, set())
            neg = self.occurs.get(-variable, set())
            if not pos and not neg:
                continue
            if len(pos) + len(neg) > occurrence_limit:
                continue
            pos_clauses = [self.clauses[i] for i in pos]
            neg_clauses = [self.clauses[i] for i in neg]
            resolvents: list[set[int]] = []
            acceptable = True
            for positive in pos_clauses:
                rest = positive - {variable}
                # No clause is a tautology, so a resolvent is one exactly
                # when the negative side holds the negation of some rest.
                clashes = {-literal for literal in rest}
                for negative in neg_clauses:
                    if not clashes.isdisjoint(negative):
                        continue
                    resolvents.append(rest | (negative - {-variable}))
                    if len(resolvents) > len(pos) + len(neg):
                        acceptable = False
                        break
                if not acceptable:
                    break
            if not acceptable:
                continue
            saved = [tuple(sorted(clause)) for clause in pos_clauses + neg_clauses]
            self.records.append(("elim", variable, saved))
            self.stats.eliminated_variables += 1
            if self.proof is not None:
                # Resolvent additions first (each is RUP via its two
                # still-active parents), parent deletions second.
                for resolvent in resolvents:
                    self.proof.add(sorted(resolvent))
                for clause in saved:
                    self.proof.delete(clause)
            for index in list(pos) + list(neg):
                self._remove_clause(index)
            for resolvent in resolvents:
                if len(resolvent) == 1:
                    unit = next(iter(resolvent))
                    self.unit_queue.append(unit)
                    pending.add(abs(unit))
                else:
                    self._add_clause(resolvent)
            changed = True
        return changed

    # -- output ---------------------------------------------------------------

    def build_result(self) -> PreprocessResult:
        formula = CnfFormula()
        formula.new_variables(self.num_variables)
        if self.stats.unsat:
            # A refuted instance is represented by an explicit
            # contradiction over the shared pool so any solver built from
            # it answers UNSAT immediately (and assumption literals stay
            # in range).
            if self.num_variables >= 1:
                formula.add_unit(1)
                formula.add_unit(-1)
            self.stats.simplified_clauses = formula.num_clauses
            return PreprocessResult(formula, [], self.stats, self.frozen)
        for variable, value in sorted(self.fixed.items()):
            if variable in self.frozen:
                # The solver must still know the forced value: assumptions
                # and added clauses may mention frozen variables later.
                formula.add_unit(variable if value else -variable)
            else:
                self.records.append(("fixed", variable, value))
        for clause in self.clauses:
            if clause is not None:
                formula.add_clause(sorted(clause))
        self.stats.simplified_clauses = formula.num_clauses
        return PreprocessResult(formula, self.records, self.stats, self.frozen)


def preprocess(
    formula: CnfFormula,
    frozen: "Sequence[int] | Iterable[int]" = (),
    *,
    max_rounds: int = 10,
    bve_occurrence_limit: int = DEFAULT_BVE_OCCURRENCE_LIMIT,
    proof=None,
    telemetry=None,
) -> PreprocessResult:
    """Simplify ``formula``, never touching the ``frozen`` variables.

    Args:
        formula: the instance to simplify (not mutated).
        frozen: variables (or literals — signs are ignored) that must
            survive: everything later used in assumptions, added clauses,
            or phase hints.  Model values of frozen variables are
            identical before and after reconstruction.
        max_rounds: cap on UP → subsumption → elimination fixpoint rounds.
        bve_occurrence_limit: skip eliminating variables with more total
            occurrences than this.
        proof: optional :class:`repro.sat.drat.ProofLog`.  Every
            simplification step is logged as DRAT add/delete lines, so a
            refutation of the *simplified* formula found by a downstream
            solver writing to the same log checks against the *original*
            formula (see :class:`_Simplifier`).
        telemetry: optional :class:`repro.telemetry.Telemetry`.  When
            set, the run is wrapped in a ``preprocess`` span and the
            per-technique removal counts (fixed / eliminated /
            substituted variables, subsumed / strengthened clauses) are
            mirrored into labelled counters after the fixpoint loop.  A
            memo hit emits the same span, with ``reused=True``, and the
            same counts.

    Returns a :class:`PreprocessResult`; ``result.formula`` preserves the
    variable pool, ``result.reconstruct`` lifts models back to the
    original formula, and ``result.unsat`` short-circuits refuted inputs.
    An input seen recently in this process is answered from the memo
    (see the module docstring) with a result equal to a cold run's.
    """
    frozen_set = frozenset(abs(int(literal)) for literal in frozen)
    if telemetry is None:
        from contextlib import nullcontext

        span = nullcontext({})
    else:
        span = telemetry.span("preprocess",
                              variables=formula.num_variables,
                              clauses=formula.num_clauses)
    with span as attrs:
        key = _memo_key(formula, frozen_set, max_rounds,
                        bve_occurrence_limit)
        entry = _lookup(key, needs_proof=proof is not None)
        if entry is not None:
            result = entry.result(frozen_set, proof)
            attrs["reused"] = True
        else:
            start = len(proof) if proof is not None else 0
            result = _simplify(formula, frozen_set, max_rounds,
                               bve_occurrence_limit, proof)
            _store(key, _MemoEntry(
                result, None if proof is None else proof.lines[start:]))
        if telemetry is not None:
            stats = result.stats
            attrs.update(rounds=stats.rounds,
                         simplified_clauses=stats.simplified_clauses)
            removed = telemetry.counter(
                "repro_preprocess_removed_total",
                "variables/clauses removed by the preprocessor, by technique")
            for technique, count in (
                ("fixed_variables", stats.fixed_variables),
                ("eliminated_variables", stats.eliminated_variables),
                ("substituted_variables", stats.substituted_variables),
                ("subsumed_clauses", stats.subsumed_clauses),
                ("strengthened_clauses", stats.strengthened_clauses),
            ):
                if count:
                    removed.labels(technique=technique).inc(count)
            telemetry.counter(
                "repro_preprocess_runs_total", "preprocessor invocations"
            ).inc()
    return result


def _simplify(formula, frozen_set, max_rounds, bve_occurrence_limit,
              proof) -> PreprocessResult:
    """One cold run: the fixpoint loop over every technique."""
    simplifier = _Simplifier(formula, frozen_set, proof=proof)
    for _ in range(max_rounds):
        simplifier.stats.rounds += 1
        if not simplifier.propagate_units():
            break
        changed = simplifier.substitute_equivalences()
        if simplifier.stats.unsat or not simplifier.propagate_units():
            break
        changed |= simplifier.subsumption_round()
        if not simplifier.propagate_units():
            break
        changed |= simplifier.eliminate_variables(bve_occurrence_limit)
        if not simplifier.propagate_units():
            break
        if not changed and not simplifier.unit_queue:
            break
    return simplifier.build_result()


# -- the once-per-process memo ------------------------------------------------


def _flatten(clauses) -> tuple[array, array]:
    """``(lengths, literals)`` of a clause sequence as two int arrays."""
    return array("i", map(len, clauses)), array("i", chain.from_iterable(clauses))


def _memo_key(formula: CnfFormula, frozen: frozenset[int], max_rounds: int,
              bve_occurrence_limit: int) -> tuple:
    """The exact input of one :func:`preprocess` call, flattened.  Keys
    compare element by element, arrays included."""
    return (formula.num_variables, max_rounds, bve_occurrence_limit, frozen,
            *_flatten(list(formula.clauses())))


#: Record kinds in :attr:`_MemoEntry.records`.
_FIXED, _EQUIV, _ELIM = 0, 1, 2


class _MemoEntry:
    """One preprocessing output, compacted into flat int arrays.

    ``records`` holds ``kind, variable, payload`` triples: the value of a
    fixed variable, the replacement of a substituted one, or for an
    eliminated one the clause count followed by ``length, *literals``
    per saved clause.  ``proof`` holds ``2·length + is_deletion,
    *literals`` per DRAT line, or is None for an entry built without a
    log.
    """

    __slots__ = ("num_variables", "lengths", "literals", "records", "stats",
                 "proof")

    def __init__(self, result: PreprocessResult, proof_lines):
        self.num_variables = result.formula.num_variables
        self.lengths, self.literals = _flatten(list(result.formula.clauses()))
        self.stats = dataclasses.replace(result.stats)
        records = array("i")
        for kind, variable, payload in result._records:
            if kind == "elim":
                records.extend((_ELIM, variable, len(payload)))
                for clause in payload:
                    records.append(len(clause))
                    records.extend(clause)
            else:
                records.extend((_FIXED if kind == "fixed" else _EQUIV,
                                variable, payload))
        self.records = records
        self.proof = None
        if proof_lines is not None:
            self.proof = array("i")
            for tag, literals in proof_lines:
                self.proof.append(2 * len(literals) + (tag == "d"))
                self.proof.extend(literals)

    def result(self, frozen: frozenset[int], proof) -> PreprocessResult:
        """A fresh result equal to the cold run's; replays the DRAT lines
        into ``proof`` when given."""
        # Reading an array element makes a new int object, ~32 bytes for
        # every literal past 256.  Decoded literals go through ``ints``
        # instead, where ``ints[literal] == literal`` for every literal
        # of the pool, so each value is one shared object.
        n = self.num_variables
        ints = [*range(n + 1), *range(-n, 0)]
        shared = ints.__getitem__
        formula = CnfFormula()
        formula.new_variables(n)
        stream = map(shared, self.literals)
        formula.add_clauses(tuple(islice(stream, length))
                            for length in self.lengths)
        records: list[tuple] = []
        stream = iter(self.records)
        for kind in stream:
            variable = ints[next(stream)]
            if kind == _ELIM:
                payload = [tuple(map(shared, islice(stream, next(stream))))
                           for _ in range(next(stream))]
                records.append(("elim", variable, payload))
            elif kind == _FIXED:
                records.append(("fixed", variable, bool(next(stream))))
            else:
                records.append(("equiv", variable, ints[next(stream)]))
        if proof is not None:
            stream = iter(self.proof)
            for header in stream:
                literals = tuple(map(shared, islice(stream, header >> 1)))
                if header & 1:
                    proof.delete(literals)
                else:
                    proof.add(literals)
        return PreprocessResult(formula, records,
                                dataclasses.replace(self.stats), frozen)


_memo_lock = threading.Lock()
#: ``(key, entry)`` pairs, least recently used first.
_memo: list[tuple[tuple, _MemoEntry]] = []


def _lookup(key: tuple, needs_proof: bool) -> _MemoEntry | None:
    with _memo_lock:
        for position, (stored, entry) in enumerate(_memo):
            if stored == key:
                if needs_proof and entry.proof is None:
                    return None
                _memo.append(_memo.pop(position))
                return entry
    return None


def _store(key: tuple, entry: _MemoEntry) -> None:
    with _memo_lock:
        # Another thread may have stored the same input meanwhile, or an
        # entry without DRAT lines is being replaced by one with them.
        _memo[:] = [pair for pair in _memo if pair[0] != key]
        _memo.append((key, entry))
        del _memo[:-MEMO_CAPACITY]


def clear_memo() -> None:
    """Forget every remembered :func:`preprocess` answer."""
    with _memo_lock:
        _memo.clear()


def _reset_lock_in_child() -> None:
    # A fork can copy the lock while another thread holds it.
    global _memo_lock
    _memo_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)

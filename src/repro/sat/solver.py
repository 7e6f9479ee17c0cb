"""Conflict-driven clause learning (CDCL) SAT solver.

This is the stand-in for Kissat/CaDiCaL in the paper's toolchain — this
environment has no external solver, so the substrate is built from scratch.
The implementation follows the MiniSat architecture: two-literal watches,
first-UIP conflict analysis, VSIDS branching with phase saving, Luby
restarts and activity/LBD-based learned-clause reduction.  It is a complete
solver: given enough budget it returns ``SAT`` with a model or ``UNSAT``;
with a conflict or wall-clock budget it may return ``UNKNOWN``, which the
descent loop in :mod:`repro.core.descent` treats as "stop tightening".

The solver is **incremental**: :meth:`CdclSolver.solve` may be called many
times on one instance, optionally under *assumptions* (literals held fixed
for that call only, MiniSat's ``solve(assumps)``), and clauses may be added
between calls with :meth:`CdclSolver.add_clause`.  Learned clauses, saved
phases and branching activities all survive across calls, which is what
makes the weight-descent ladder in :mod:`repro.core.descent` cheap: one
CNF, one clause database, a tightening bound expressed as a one-literal
assumption per step.

Hot-loop layout — flat, not object-per-clause
---------------------------------------------

Propagation dominates solve time, so the clause database is a single
contiguous ``list[int]`` arena (:attr:`CdclSolver.db`) instead of per-clause
Python objects.  A clause is referenced by its arena offset (*cref*):
``db[cref]`` is a packed header ``size << 1 | learned`` and
``db[cref + 1 : cref + 1 + size]`` are the encoded literals, with the two
watched literals in slots 0 and 1.  Watch lists are flat, too: for every
encoded literal, ``watches[lit]`` is ``[cref0, blocker0, cref1, blocker1,
...]`` where the *blocker* is some other literal of the clause (usually the
other watch) — when the blocker is already true the clause is satisfied and
the propagation loop skips it without ever touching the arena, which is the
common case.  The loop scans a watch list in one pass: a satisfied blocker
costs one index step, a kept watcher has its blocker rewritten in place,
and a watcher that moves to another literal is cut out with
``del ws[i:i + 2]``, so the list keeps its order without a copy-back.
Literal truth values live in a flat ``list`` (:attr:`CdclSolver.assign`,
``0`` free / ``1`` true / ``2`` false) indexed by encoded literal;
``in_use`` and ``queued`` are lists too, since CPython 3.11 specializes
list subscripts by an int and not bytearray ones.  Only conflict
analysis's ``seen`` marks stay a ``bytearray``: they are allocated afresh
at every conflict, which costs far less than a list of the same length.
Clause activities and LBD scores — touched only on conflicts — live in
side dicts keyed by cref; learned-clause reduction tombstones dead crefs
and compacts the arena when more than half of it is garbage.

Binary clauses — the bulk of a Tseitin-heavy instance — never enter the
watch machinery at all.  A clause ``(a, b)`` becomes two implication-list
entries: ``bins[¬a]`` contains ``b`` and ``bins[¬b]`` contains ``a``
(indexed by the falsified encoded literal), so propagating them is one
array scan with no relocation and no arena traffic.  Their *reasons* are
encoded in-band as negative values (``reason = -other_literal - 1``), and
a binary conflict is materialized into a fixed two-literal scratch slot of
the arena (``cref == 1``) for conflict analysis to consume.

The VSIDS order heap (:attr:`CdclSolver.order_heap`) is a lazy ``heapq``
of ``(-activity, variable)`` keys: a bump adds a fresh key instead of
moving the old one, so older keys for the same variable go *stale*.  The
per-variable flag :attr:`CdclSolver.queued` means "the heap holds an entry
carrying this variable's current activity".  A bump of a free variable
pushes its key and sets the flag; a bump of an assigned one only clears
the flag, because its new key is pushed when :meth:`CdclSolver._backtrack`
frees it.  Every variable conflict analysis bumps is assigned, so a
conflict pushes nothing, and a variable bumped at many conflicts before it
is freed is pushed once.  Popping the current key clears the flag, and
backtracking requeues a freed in-use variable only when the flag is clear.
Every free in-use variable thus always has its current key in the heap,
and stale keys carry strictly lower activity, so they pop later.  The pick
is therefore exactly the argmax of ``(activity, -variable)`` over free
in-use variables.  Stale keys still accumulate, so once the heap exceeds
``_HEAP_SLACK * num_vars`` entries after a backtrack, where it grows, it is
rebuilt with one entry per in-use variable; the VSIDS rescale reuses the
same rebuild.  Stale keys never change a pick, so neither does when they
go.

Literals are DIMACS integers at the API boundary and are encoded internally
as ``2*v`` (positive) / ``2*v + 1`` (negative) for array indexing.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro import chaos
from repro.sat.cnf import CnfFormula

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_ACTIVITY_RESCALE = 1e100
_ACTIVITY_DECAY = 0.95
_RESTART_BASE = 128
#: The order heap is rebuilt once it holds more than this many entries
#: per variable (see "Hot-loop layout" above).
_HEAP_SLACK = 4

#: :attr:`CdclSolver.assign` cell states (indexed by encoded literal).
_FREE, _TRUE, _FALSE = 0, 1, 2


@dataclass(frozen=True)
class SolverStats:
    """Search-effort counters shared by every layer that reports them.

    One vocabulary across :class:`SolveResult` and descent steps.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``under_assumptions`` distinguishes an ``UNSAT`` that only holds for
    the assumption set of that call from a proof that the formula itself
    is unsatisfiable (``False``).  The counters are per-call, not
    lifetime: an incremental solver resets them at each :meth:`solve`.
    """

    status: str
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)
    elapsed_s: float = 0.0
    under_assumptions: bool = False
    learned_clauses: int = 0

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

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


def luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-based ``index``)."""
    if index < 1:
        raise ValueError("luby index is 1-based")
    position = index - 1
    size = 1
    exponent = 0
    while size < position + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != position:
        size = (size - 1) >> 1
        exponent -= 1
        position %= size
    return 1 << exponent


class CdclSolver:
    """Incremental CDCL solver over a :class:`CnfFormula`.

    Args:
        formula: the CNF instance; not mutated.
        seed_phases: optional initial saved phases ``{variable: bool}`` —
            warm-starting descent iterations near the previous model.
        proof: optional :class:`repro.sat.drat.ProofLog`.  When set, every
            learnt clause is logged as a DRAT addition, every clause the
            reduction pass drops as a DRAT deletion, and every clause
            injected through :meth:`add_clause` as a premise axiom — an
            UNSAT answer then has a complete, independently checkable
            refutation (see :mod:`repro.sat.drat`).  ``None`` (the
            default) keeps emission entirely out of the hot path.
        telemetry: optional :class:`repro.telemetry.Telemetry`.  When
            set, the solver mirrors its counters (conflicts, decisions,
            propagations, restarts) into the metrics registry and keeps
            a learned-DB-size gauge fresh — sampled only at restart
            boundaries and call exit, never inside the inner loop, so
            the overhead discipline matches proof logging: ``None``
            costs nothing.
    """

    def __init__(
        self,
        formula: CnfFormula,
        seed_phases: dict[int, bool] | None = None,
        *,
        proof=None,
        telemetry=None,
    ):
        self.proof = proof
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            self._tele_conflicts = metrics.counter(
                "repro_solver_conflicts_total", "CDCL conflicts")
            self._tele_decisions = metrics.counter(
                "repro_solver_decisions_total", "CDCL decisions")
            self._tele_propagations = metrics.counter(
                "repro_solver_propagations_total", "CDCL unit propagations")
            self._tele_restarts = metrics.counter(
                "repro_solver_restarts_total", "CDCL restarts")
            self._tele_learned = metrics.gauge(
                "repro_solver_learned_clauses",
                "learned clauses currently kept")
            self._tele_rate = metrics.gauge(
                "repro_solver_conflict_rate",
                "conflicts per second over the most recent solve call")
            self._tele_sampled = [0, 0, 0, 0]
        self.num_vars = formula.num_variables
        n = self.num_vars
        self.assign = [_FREE] * (2 * n + 2)   # per encoded literal: _FREE/_TRUE/_FALSE
        self.level = [0] * (n + 1)
        self.reason = [0] * (n + 1)           # cref per variable; 0 = no reason
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.saved_phase = [False] * (n + 1)
        # Variables that appear in no clause need never be decided: models
        # report their saved phase directly.  Preprocessed instances leave
        # many eliminated variables in the pool (literal numbering must
        # survive), so branching only over constrained variables keeps the
        # search space at the simplified instance's true size.
        self.in_use = [0] * (n + 1)
        self.order_heap: list[tuple[float, int]] = []
        # queued[v]: order_heap holds an entry with v's current activity.
        self.queued = [0] * (n + 1)
        self._heap_limit = _HEAP_SLACK * n
        # Arena cell 0 is a sentinel ("no reason"); cells 1..3 are the
        # scratch clause binary conflicts are materialized into.
        self.db: list[int] = [0, 2 << 1, 0, 0]
        self.bins: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.clauses: list[int] = []          # problem crefs (3+ literals)
        self.num_problem_clauses = 0          # binaries included
        self.learned: list[int] = []          # learned crefs (3+ literals)
        self.learned_binaries = 0
        self.c_act: dict[int, float] = {}     # learned-clause activities
        self.c_lbd: dict[int, int] = {}       # learned-clause LBD scores
        self._garbage = 0                     # tombstoned arena cells
        self.clause_inc = 1.0
        self.root_conflict = False
        self.propagation_count = 0

        if seed_phases:
            for variable, phase in seed_phases.items():
                if 1 <= variable <= n:
                    self.saved_phase[variable] = phase

        for clause_lits in formula.clauses():
            self._add_problem_clause(clause_lits)

    # -- incremental interface -------------------------------------------------

    def add_clause(self, literals) -> None:
        """Add one DIMACS clause to the live instance (incremental use).

        Valid between :meth:`solve` calls: the solver backtracks to the
        root level, installs the clause, and performs any root-level
        propagation it triggers.  Clauses over variables the solver does
        not know are rejected — the variable pool is fixed at
        construction.
        """
        clause = list(literals)
        for literal in clause:
            if literal == 0 or abs(literal) > self.num_vars:
                raise ValueError(f"literal {literal} is not in this solver's pool")
        if self.proof is not None:
            # Mid-run problem clauses (e.g. blocking clauses) join the
            # checker's premise set: RUP is monotone in the premises, so
            # the trace refutes exactly the conjunction the solver saw.
            self.proof.axiom(clause)
        self._backtrack(0)
        self._add_problem_clause(clause)

    def set_phases(self, phases: dict[int, bool]) -> None:
        """Overwrite saved phases (warm-start hints) for the given variables."""
        for variable, phase in phases.items():
            if 1 <= variable <= self.num_vars:
                self.saved_phase[variable] = phase

    # -- literal helpers ------------------------------------------------------

    @staticmethod
    def _encode(literal: int) -> int:
        return (literal << 1) if literal > 0 else ((-literal) << 1) | 1

    @staticmethod
    def _decode(encoded: int) -> int:
        return -(encoded >> 1) if encoded & 1 else (encoded >> 1)

    # -- clause arena ----------------------------------------------------------

    def _alloc(self, lits: list[int], learned: bool) -> int:
        db = self.db
        cref = len(db)
        db.append(len(lits) << 1 | int(learned))
        db.extend(lits)
        return cref

    def _mark_used(self, encoded: int) -> None:
        variable = encoded >> 1
        if not self.in_use[variable]:
            self.in_use[variable] = 1
            self.queued[variable] = 1
            heapq.heappush(self.order_heap, (-self.activity[variable], variable))

    def _watch(self, cref: int, lit0: int, lit1: int) -> None:
        watch = self.watches[lit0]
        watch.append(cref)
        watch.append(lit1)
        watch = self.watches[lit1]
        watch.append(cref)
        watch.append(lit0)

    # -- setup ------------------------------------------------------------------

    def _add_problem_clause(self, dimacs_lits) -> None:
        encode = self._encode
        lits = [encode(literal) for literal in dimacs_lits]
        if len({encoded >> 1 for encoded in lits}) < len(lits):
            # A variable repeats: drop duplicates, keeping first occurrences.
            seen: dict[int, int] = {}
            unique: list[int] = []
            for encoded in lits:
                previous = seen.get(encoded >> 1)
                if previous is None:
                    seen[encoded >> 1] = encoded
                    unique.append(encoded)
                elif previous != encoded:
                    return  # tautology: v OR NOT v
            lits = unique
        assign = self.assign
        if self.trail:
            # Drop root-falsified literals eagerly; keep semantics identical.
            level = self.level
            lits = [lit for lit in lits
                    if not (assign[lit] == _FALSE and level[lit >> 1] == 0)]
            if any(assign[lit] == _TRUE and level[lit >> 1] == 0 for lit in lits):
                return
        if not lits:
            self.root_conflict = True
            return
        for lit in lits:
            self._mark_used(lit)
        if len(lits) == 1:
            if assign[lits[0]] == _FALSE:
                self.root_conflict = True
            elif assign[lits[0]] == _FREE:
                self._enqueue(lits[0], 0)
                if self._propagate():
                    self.root_conflict = True
            return
        self.num_problem_clauses += 1
        if len(lits) == 2:
            # ``bins`` is indexed by the falsified in-clause literal.
            self.bins[lits[0]].append(lits[1])
            self.bins[lits[1]].append(lits[0])
            return
        cref = self._alloc(lits, learned=False)
        self.clauses.append(cref)
        self._watch(cref, lits[0], lits[1])

    # -- assignment / propagation --------------------------------------------------

    def _enqueue(self, encoded: int, reason: int) -> None:
        variable = encoded >> 1
        self.assign[encoded] = _TRUE
        self.assign[encoded ^ 1] = _FALSE
        self.level[variable] = len(self.trail_lim)
        self.reason[variable] = reason
        self.trail.append(encoded)

    # repro-lint: hot-path
    def _propagate(self) -> int:
        """Propagate the trail to fixpoint; returns a conflict cref or 0."""
        db = self.db
        assign = self.assign
        watches = self.watches
        bins = self.bins
        trail = self.trail
        level = self.level
        reason = self.reason
        current_level = len(self.trail_lim)
        qhead = self.qhead
        propagations = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            falsified = lit ^ 1
            # Binary implications first: cheapest, and any unit they force
            # prunes the long-clause scan below.
            for implied in bins[falsified]:
                value = assign[implied]
                if value == _TRUE:
                    continue
                if value == _FALSE:
                    db[2] = implied
                    db[3] = falsified
                    self.qhead = qhead
                    self.propagation_count += propagations
                    return 1
                variable = implied >> 1
                assign[implied] = _TRUE
                assign[implied ^ 1] = _FALSE
                level[variable] = current_level
                reason[variable] = -falsified - 1
                trail.append(implied)
            # One pass over the watch list: a satisfied blocker costs one
            # index step, a kept watcher has its blocker rewritten in place,
            # and a watcher that moves is cut out where it stands.
            ws = watches[falsified]
            i = 0
            end = len(ws)
            while i < end:
                if assign[ws[i + 1]] == _TRUE:
                    i += 2
                    continue
                cref = ws[i]
                base = cref + 1
                first = db[base]
                if first == falsified:
                    first = db[base + 1]
                    db[base] = first
                    db[base + 1] = falsified
                if assign[first] == _TRUE:
                    ws[i + 1] = first
                    i += 2
                    continue
                stop = base + (db[cref] >> 1)
                k = base + 2
                while k < stop:
                    other = db[k]
                    if assign[other] != _FALSE:
                        db[base + 1] = other
                        db[k] = falsified
                        moved_watch = watches[other]
                        moved_watch.append(cref)
                        moved_watch.append(first)
                        del ws[i:i + 2]
                        end -= 2
                        break
                    k += 1
                else:
                    ws[i + 1] = first
                    if assign[first] == _FALSE:
                        self.qhead = qhead
                        self.propagation_count += propagations
                        return cref
                    i += 2
                    variable = first >> 1
                    assign[first] = _TRUE
                    assign[first ^ 1] = _FALSE
                    level[variable] = current_level
                    reason[variable] = cref
                    trail.append(first)
        self.qhead = qhead
        self.propagation_count += propagations
        return 0

    # -- branching ------------------------------------------------------------------

    def _bump_variable(self, variable: int) -> None:
        """Bump one variable by the rule conflict analysis inlines: a free
        variable's new key is pushed now, an assigned one's when
        :meth:`_backtrack` frees it."""
        activity = self.activity
        activity[variable] += self.var_inc
        if activity[variable] > _ACTIVITY_RESCALE:
            self._rescale_activities()
            return
        if self.assign[variable << 1] == _FREE:
            self.queued[variable] = 1
            heapq.heappush(self.order_heap, (-activity[variable], variable))
            if len(self.order_heap) > self._heap_limit:
                self._rebuild_order_heap()
        else:
            self.queued[variable] = 0

    def _rescale_activities(self) -> None:
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100
        # Queued entries still carry pre-rescale keys that would outrank
        # every later push: requeue at current activities.
        self._rebuild_order_heap()

    def _rebuild_order_heap(self) -> None:
        """Replace the heap by one current-activity entry per in-use variable."""
        activity = self.activity
        in_use = self.in_use
        self.order_heap = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                           if in_use[v]]
        heapq.heapify(self.order_heap)
        self.queued[:] = in_use

    def _decay_activities(self) -> None:
        self.var_inc /= _ACTIVITY_DECAY

    # repro-lint: hot-path
    def _pick_branch_variable(self) -> int | None:
        heap = self.order_heap
        activity = self.activity
        queued = self.queued
        assign = self.assign
        while heap:
            key, variable = heapq.heappop(heap)
            if key == -activity[variable]:
                queued[variable] = 0
            if assign[variable << 1] == _FREE:
                return variable
        # Every free in-use variable holds its current key in the heap (see
        # "Hot-loop layout" above), so an empty heap means none is free.
        return None

    # -- conflict analysis --------------------------------------------------------------

    # repro-lint: hot-path
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP analysis with clause minimization.

        Returns (learnt clause, backtrack level).
        """
        db = self.db
        level = self.level
        reason = self.reason
        activity = self.activity
        var_inc = self.var_inc
        queued = self.queued
        trail = self.trail
        learnt: list[int] = [0]
        seen = bytearray(self.num_vars + 1)
        current_level = len(self.trail_lim)
        path_count = 0
        resolved_lit = -1
        index = len(trail) - 1
        cref = conflict

        while True:
            if cref < 0:
                # Implicit binary reason: lits[1:] is the single stored
                # literal (lits[0] is the implied literal, skipped).
                antecedents = (-cref - 1,)
            else:
                header = db[cref]
                if header & 1:
                    self.c_act[cref] += self.clause_inc
                start = cref + 1 if resolved_lit == -1 else cref + 2
                antecedents = db[start:cref + 1 + (header >> 1)]
            for encoded in antecedents:
                variable = encoded >> 1
                if not seen[variable] and level[variable] > 0:
                    seen[variable] = 1
                    # VSIDS bump (_bump_variable's rule): the variable is
                    # assigned, so _backtrack pushes its key when it frees it.
                    activity[variable] += var_inc
                    if activity[variable] > _ACTIVITY_RESCALE:
                        self._rescale_activities()
                        var_inc = self.var_inc
                    else:
                        queued[variable] = 0
                    if level[variable] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(encoded)
            while not seen[trail[index] >> 1]:
                index -= 1
            resolved_lit = trail[index]
            variable = resolved_lit >> 1
            path_count -= 1
            index -= 1
            if path_count <= 0:
                break
            cref = reason[variable]

        learnt[0] = resolved_lit ^ 1

        # Minimization: drop literals whose implication closure lies inside
        # the clause (MiniSat's recursive litRedundant with abstract levels).
        abstract_levels = 0
        for encoded in learnt[1:]:
            abstract_levels |= 1 << (level[encoded >> 1] & 31)
        minimized = [learnt[0]]
        for literal in learnt[1:]:
            if reason[literal >> 1] == 0:
                minimized.append(literal)
                continue
            stack = [literal]
            newly_marked: list[int] = []
            while stack:
                cref = reason[stack.pop() >> 1]
                if cref < 0:
                    antecedents = (-cref - 1,)
                else:
                    antecedents = db[cref + 2:cref + 1 + (db[cref] >> 1)]
                for encoded in antecedents:
                    variable = encoded >> 1
                    if seen[variable] or level[variable] == 0:
                        continue
                    if (
                        reason[variable] != 0
                        and (1 << (level[variable] & 31)) & abstract_levels
                    ):
                        seen[variable] = 1
                        newly_marked.append(variable)
                        stack.append(encoded)
                    else:
                        # Not redundant: undo this probe's marks, keep it.
                        for marked in newly_marked:
                            seen[marked] = 0
                        minimized.append(literal)
                        stack.clear()
                        break
        learnt = minimized

        if len(learnt) == 1:
            return learnt, 0
        # Find the second-highest decision level and watch that literal.
        max_index = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[max_index] >> 1]:
                max_index = k
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        return learnt, level[learnt[1] >> 1]

    # repro-lint: hot-path
    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        boundary = self.trail_lim[target_level]
        assign = self.assign
        reason = self.reason
        saved_phase = self.saved_phase
        activity = self.activity
        in_use = self.in_use
        queued = self.queued
        heap = self.order_heap
        for encoded in reversed(self.trail[boundary:]):
            variable = encoded >> 1
            assign[encoded] = _FREE
            assign[encoded ^ 1] = _FREE
            reason[variable] = 0
            saved_phase[variable] = (encoded & 1) == 0
            # Assumption-only variables (in no clause) are never decided.
            if in_use[variable] and not queued[variable]:
                queued[variable] = 1
                heapq.heappush(heap, (-activity[variable], variable))
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)
        # Stale keys never change a pick (see "Hot-loop layout"), so the
        # heap is trimmed here, where it grows, not at every push.
        if len(heap) > self._heap_limit:
            self._rebuild_order_heap()

    def _record_learnt(self, learnt: list[int]) -> None:
        if self.proof is not None:
            # First-UIP clauses (minimized included) are RUP against the
            # clause set at learn time, assumptions never resolved in —
            # the emission order alone makes the trace checkable.
            self.proof.add([-(encoded >> 1) if encoded & 1 else encoded >> 1
                            for encoded in learnt])
        if len(learnt) == 1:
            self._enqueue(learnt[0], 0)
            return
        if len(learnt) == 2:
            # Learned binaries join the implication lists permanently —
            # they are exactly the LBD <= 2 clauses reduction never drops.
            self.bins[learnt[0]].append(learnt[1])
            self.bins[learnt[1]].append(learnt[0])
            self.learned_binaries += 1
            self._enqueue(learnt[0], -learnt[1] - 1)
            return
        cref = self._alloc(learnt, learned=True)
        level = self.level
        self.c_act[cref] = 0.0
        self.c_lbd[cref] = len({level[encoded >> 1] for encoded in learnt})
        self.learned.append(cref)
        self._watch(cref, learnt[0], learnt[1])
        self._enqueue(learnt[0], cref)

    def _reduce_learned(self) -> None:
        locked = {self.reason[encoded >> 1] for encoded in self.trail}
        locked.discard(0)
        c_act = self.c_act
        c_lbd = self.c_lbd
        self.learned.sort(key=lambda cref: (c_lbd[cref], -c_act[cref]))
        keep_count = len(self.learned) // 2
        keep, drop = self.learned[:keep_count], self.learned[keep_count:]
        survivors = [cref for cref in drop if cref in locked or c_lbd[cref] <= 2]
        removed = {cref for cref in drop if cref not in locked and c_lbd[cref] > 2}
        self.learned = keep + survivors
        if not removed:
            return
        db = self.db
        if self.proof is not None:
            decode = self._decode
            for cref in sorted(removed):
                size = db[cref] >> 1
                self.proof.delete(
                    [decode(encoded) for encoded in db[cref + 1:cref + 1 + size]]
                )
        for watch_list in self.watches:
            j = 0
            for i in range(0, len(watch_list), 2):
                cref = watch_list[i]
                if cref not in removed:
                    watch_list[j] = cref
                    watch_list[j + 1] = watch_list[i + 1]
                    j += 2
            del watch_list[j:]
        for cref in removed:
            self._garbage += (db[cref] >> 1) + 1
            del c_act[cref]
            del c_lbd[cref]
        if 2 * self._garbage > len(db):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the arena without tombstoned clauses, remapping crefs."""
        old_db = self.db
        new_db = old_db[:4]  # sentinel + binary-conflict scratch slot
        mapping: dict[int, int] = {0: 0}
        for group in (self.clauses, self.learned):
            for index, cref in enumerate(group):
                size = old_db[cref] >> 1
                new_cref = len(new_db)
                mapping[cref] = new_cref
                new_db.extend(old_db[cref:cref + 1 + size])
                group[index] = new_cref
        self.db = new_db
        self._garbage = 0
        self.c_act = {mapping[cref]: act for cref, act in self.c_act.items()}
        self.c_lbd = {mapping[cref]: lbd for cref, lbd in self.c_lbd.items()}
        # Negative entries are in-band binary reasons; they name literals,
        # not arena offsets, and survive compaction unchanged.
        self.reason = [r if r <= 0 else mapping[r] for r in self.reason]
        for watch_list in self.watches:
            for i in range(0, len(watch_list), 2):
                watch_list[i] = mapping[watch_list[i]]

    def _sample_telemetry(self, conflicts: int, decisions: int,
                          restarts: int) -> None:
        """Mirror counter deltas since the last sample into the registry.

        Called at restart boundaries and call exit only — the inner
        propagate/analyze loop never touches telemetry.
        """
        last = self._tele_sampled
        if conflicts > last[0]:
            self._tele_conflicts.inc(conflicts - last[0])
        if decisions > last[1]:
            self._tele_decisions.inc(decisions - last[1])
        if self.propagation_count > last[2]:
            self._tele_propagations.inc(self.propagation_count - last[2])
        if restarts > last[3]:
            self._tele_restarts.inc(restarts - last[3])
        self._tele_learned.set(len(self.learned) + self.learned_binaries)
        self._tele_sampled = [conflicts, decisions, self.propagation_count,
                              restarts]

    # -- main loop -----------------------------------------------------------------------

    # repro-lint: hot-path
    def solve(
        self,
        max_conflicts: int | None = None,
        time_budget_s: float | None = None,
        assumptions: "list[int] | tuple[int, ...] | None" = None,
    ) -> SolveResult:
        """Run the search until SAT/UNSAT or a budget is exhausted.

        May be called repeatedly on one instance; learned clauses, phases
        and activities carry over, so related calls get cheaper.

        Args:
            max_conflicts: per-call conflict budget (``None`` unlimited).
            time_budget_s: per-call wall-clock budget.  Note that budgets
                make the *stopping point* wall-clock-dependent; conflict
                budgets keep the call fully deterministic.
            assumptions: DIMACS literals held true for this call only.
                ``UNSAT`` with ``under_assumptions=True`` means no model
                extends the assumptions; the formula itself may still be
                satisfiable.  A model returned under assumptions always
                satisfies them.
        """
        # One solve call is one descent rung: ``solver.slice`` is the fault
        # point for dying (or failing) mid-descent.  In kill mode the hit
        # counter is per-process, so a respawned worker gets a fresh budget
        # of rungs — exactly what lets a checkpoint-resumed retry converge.
        chaos.inject("solver.slice", telemetry=self.telemetry)
        start = time.monotonic()
        deadline = None if time_budget_s is None else start + time_budget_s
        self.propagation_count = 0
        if self.telemetry is not None:
            self._tele_sampled = [0, 0, 0, 0]
        conflicts = 0
        decisions = 0
        restarts = 0
        max_learned = max(4000, 2 * self.num_problem_clauses)
        assumed: list[int] = []
        for literal in assumptions or ():
            if literal == 0 or abs(literal) > self.num_vars:
                raise ValueError(f"assumption {literal} is not in this solver's pool")
            assumed.append(self._encode(literal))

        def result(
            status: str,
            model: dict[int, bool] | None = None,
            under_assumptions: bool = False,
        ) -> SolveResult:
            elapsed = time.monotonic() - start
            if self.telemetry is not None:
                self._sample_telemetry(conflicts, decisions, restarts)
                if elapsed > 0:
                    self._tele_rate.set(conflicts / elapsed)
            return SolveResult(
                status=status,
                model=model,
                stats=SolverStats(
                    conflicts=conflicts,
                    decisions=decisions,
                    propagations=self.propagation_count,
                    restarts=restarts,
                ),
                elapsed_s=elapsed,
                under_assumptions=under_assumptions,
                learned_clauses=len(self.learned) + self.learned_binaries,
            )

        # A previous call may have left the trail at a decision level.
        self._backtrack(0)
        if self.root_conflict:
            return result(UNSAT)
        if self._propagate():
            self.root_conflict = True
            return result(UNSAT)

        restart_limit = luby(1) * _RESTART_BASE
        conflicts_since_restart = 0
        assign = self.assign

        while True:
            conflict = self._propagate()
            if conflict:
                conflicts += 1
                conflicts_since_restart += 1
                if len(self.trail_lim) == 0:
                    self.root_conflict = True
                    return result(UNSAT)
                learnt, backtrack_level = self._analyze(conflict)
                self._backtrack(backtrack_level)
                self._record_learnt(learnt)
                self._decay_activities()
                self.clause_inc *= 1.001

                if max_conflicts is not None and conflicts >= max_conflicts:
                    return result(UNKNOWN)
                if deadline is not None and conflicts % 64 == 0 and time.monotonic() > deadline:
                    return result(UNKNOWN)
                continue

            if conflicts_since_restart >= restart_limit:
                restarts += 1
                conflicts_since_restart = 0
                restart_limit = luby(restarts + 1) * _RESTART_BASE
                self._backtrack(0)
                if len(self.learned) > max_learned:
                    self._reduce_learned()
                if self.telemetry is not None:
                    self._sample_telemetry(conflicts, decisions, restarts)
                    progress = getattr(self.telemetry, "progress", None)
                    if progress is not None:
                        # Restart boundaries are the only hot-loop touch
                        # point, and the bus throttles further — most
                        # calls cost one monotonic-clock read.
                        elapsed = time.monotonic() - start
                        progress.heartbeat(
                            conflicts=conflicts,
                            conflicts_per_s=(round(conflicts / elapsed, 1)
                                             if elapsed > 0 else 0.0),
                            elapsed_s=round(elapsed, 3),
                        )
                continue

            if len(self.trail_lim) < len(assumed):
                # Assert the next assumption as a pseudo-decision.  An
                # already-true assumption still opens its own (empty)
                # decision level so backtracking bookkeeping stays aligned
                # with the assumption index.
                encoded = assumed[len(self.trail_lim)]
                value = assign[encoded]
                if value == _FALSE:
                    return result(UNSAT, under_assumptions=True)
                self.trail_lim.append(len(self.trail))
                if value == _FREE:
                    self._enqueue(encoded, 0)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                saved_phase = self.saved_phase
                # Unconstrained variables are never decided; they take
                # their saved phase, exactly as a decision on them would.
                model = {
                    v: saved_phase[v] if assign[v << 1] == _FREE
                    else assign[v << 1] == _TRUE
                    for v in range(1, self.num_vars + 1)
                }
                return result(SAT, model)
            decisions += 1
            self.trail_lim.append(len(self.trail))
            encoded = (variable << 1) | (0 if self.saved_phase[variable] else 1)
            self._enqueue(encoded, 0)


def solve_formula(
    formula: CnfFormula,
    max_conflicts: int | None = None,
    time_budget_s: float | None = None,
    seed_phases: dict[int, bool] | None = None,
    assumptions: "list[int] | tuple[int, ...] | None" = None,
) -> SolveResult:
    """Convenience wrapper: build a fresh :class:`CdclSolver` and run it."""
    return CdclSolver(formula, seed_phases=seed_phases).solve(
        max_conflicts=max_conflicts,
        time_budget_s=time_budget_s,
        assumptions=assumptions,
    )

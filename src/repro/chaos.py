"""Structured chaos engine: named fault points with deterministic triggers.

Production resilience claims are only as good as the failures they were
tested against, so the fault injection used by tests and operational
drills is a first-class subsystem rather than scattered ``if env:``
hacks.  Code paths that can fail in the field declare a **named fault
point** (:data:`FAULT_POINTS`) and call :func:`inject` at the moment the
real failure would strike; an armed point then raises (or kills the
process) with semantics chosen by the operator.

Arming is declarative, via environment variables (inherited by forked
worker processes) or :func:`configure` in tests::

    REPRO_CHAOS="cache.write=once"                # first write fails
    REPRO_CHAOS="solver.slice=after:3:kill"       # 4th+ SAT call kills the worker
    REPRO_CHAOS="cache.read=prob:0.25,http.handler=once"
    REPRO_CHAOS="job.run@chaos-drill=always"      # only jobs labelled *chaos-drill*
    REPRO_CHAOS_SEED=7                            # seeds the prob: draws

Trigger grammar, per point (``point[@label]=trigger[:arg][:kill]``):

* ``once`` — only the first hit faults; later hits pass.
* ``always`` — every hit faults.
* ``after:N`` — the first N hits pass, every later hit faults (lets a
  drill make *partial* progress before the failure, e.g. checkpoint a
  few descent rungs and then die).
* ``prob:P`` — each hit faults with probability P, drawn from a
  deterministic per-(seed, rule, hit-index) stream so a failing run
  replays exactly.

A ``@label`` scope restricts a rule to calls whose label (the job label,
for ``job.run``) contains that substring: a scoped rule counts and fires
only on those calls, so one server can fail a drill job while its
neighbours run clean.  A point may carry an unscoped rule and any number
of scoped ones; each counts its own hits.

The ``:kill`` modifier turns the fault into ``os._exit(86)`` — a hard
process death, indistinguishable from SIGKILL to the parent — instead of
an exception.  That is the lever for supervised-retry drills: a killed
pool worker surfaces as ``BrokenProcessPool`` and exercises the
daemon's requeue path end to end.

Fault points whose consumers are expected to *degrade* rather than fail
(cache I/O, checkpoint writes) raise :class:`ChaosIOFault`, an
``OSError`` subclass, so the production error handling they claim to
have actually engages; everything else raises :class:`ChaosFault`.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass

#: Structured arming spec, e.g. ``"cache.write=once,job.run@drill=always"``.
CHAOS_ENV = "REPRO_CHAOS"

#: Seed of the ``prob:`` trigger's deterministic draws (default 0).
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"

#: Every named fault point, at the layer where the real failure would hit:
#: cache entry reads/writes, descent checkpoint persistence, worker-pool
#: process spawning, each SAT solve call, each HTTP request, and the job
#: execution body itself.
FAULT_POINTS = (
    "cache.read",
    "cache.write",
    "checkpoint.write",
    "worker.spawn",
    "solver.slice",
    "http.handler",
    "job.run",
)

#: Points whose callers handle ``OSError`` in production (best-effort
#: persistence); their faults must walk the same handler.
_IO_POINTS = frozenset({"cache.read", "cache.write", "checkpoint.write"})

#: Exit status of a ``:kill`` fault — distinctive in ``waitpid`` output.
KILL_EXIT_CODE = 86

_TRIGGERS = ("once", "always", "after", "prob")


class ChaosFault(RuntimeError):
    """An injected fault from an armed chaos point."""

    def __init__(self, message: str, point: str = ""):
        super().__init__(message)
        self.point = point


class ChaosIOFault(ChaosFault, OSError):
    """An injected I/O fault — also an ``OSError``, so best-effort
    persistence paths treat it exactly like a real disk failure."""


@dataclass(frozen=True)
class FaultRule:
    """Arming of one fault point: when its hits turn into faults.

    ``label``, when set, scopes the rule to calls whose label contains
    it; other calls neither count as hits nor fault.
    """

    point: str
    trigger: str = "once"
    after: int = 0
    probability: float = 0.0
    kill: bool = False
    label: str | None = None

    @property
    def key(self) -> str:
        """The rule's name in specs and counters: ``point[@label]``."""
        return self.point if self.label is None else f"{self.point}@{self.label}"

    def applies(self, label: str | None) -> bool:
        return self.label is None or self.label in (label or "")

    def fires(self, hit: int, seed: int) -> bool:
        """Whether the ``hit``-th call (1-based) this rule counts faults."""
        if self.trigger == "once":
            return hit == 1
        if self.trigger == "always":
            return True
        if self.trigger == "after":
            return hit > self.after
        # prob: one draw per (seed, rule, hit) — replayable, order-free.
        draw = random.Random(f"{seed}:{self.key}:{hit}").random()
        return draw < self.probability


def parse_rules(spec: str) -> dict[str, FaultRule]:
    """Parse a :data:`CHAOS_ENV` spec into rules keyed by
    :attr:`FaultRule.key`.

    Raises ``ValueError`` on unknown points or malformed triggers — a
    typoed drill must fail loudly, not silently inject nothing.
    """
    rules: dict[str, FaultRule] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        target, sep, trigger_spec = chunk.partition("=")
        point, scoped, label = (part.strip() for part in target.partition("@"))
        if scoped and not label:
            raise ValueError(f"chaos rule scope needs a label: {chunk!r}")
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown chaos point {point!r}; expected one of {FAULT_POINTS}"
            )
        tokens = [t.strip() for t in trigger_spec.split(":")] if sep else ["once"]
        kill = False
        if tokens and tokens[-1] == "kill":
            kill = True
            tokens = tokens[:-1]
        trigger = tokens[0] if tokens and tokens[0] else "once"
        if trigger not in _TRIGGERS:
            raise ValueError(
                f"unknown chaos trigger {trigger!r} for point {point!r}; "
                f"expected one of {_TRIGGERS}"
            )
        after, probability = 0, 0.0
        if trigger == "after":
            if len(tokens) != 2:
                raise ValueError(f"chaos trigger 'after' needs a count: {chunk!r}")
            after = int(tokens[1])
        elif trigger == "prob":
            if len(tokens) != 2:
                raise ValueError(
                    f"chaos trigger 'prob' needs a probability: {chunk!r}"
                )
            probability = float(tokens[1])
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"chaos probability out of [0, 1]: {chunk!r}")
        elif len(tokens) != 1:
            raise ValueError(f"chaos trigger {trigger!r} takes no argument: {chunk!r}")
        rule = FaultRule(
            point=point, trigger=trigger, after=after,
            probability=probability, kill=kill, label=label or None,
        )
        rules[rule.key] = rule
    return rules


class ChaosEngine:
    """Per-process fault-injection state: rules plus hit/fault counters.

    Counters (``hits``/``faults``, by :attr:`FaultRule.key`) are
    process-local by design — a forked worker replays its
    own deterministic hit sequence from zero, so e.g.
    ``solver.slice=after:2:kill`` lets *each attempt* of a retried job
    advance two rungs before dying, which is exactly what a
    checkpoint-resume drill needs.
    """

    def __init__(self, rules: dict[str, FaultRule] | None = None, seed: int = 0):
        self.rules = dict(rules or {})
        #: point -> its rules, so an unarmed point costs one dict lookup.
        self._by_point: dict[str, list[FaultRule]] = {}
        for rule in self.rules.values():
            self._by_point.setdefault(rule.point, []).append(rule)
        self.seed = seed
        self.hits: dict[str, int] = {}
        self.faults: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, environ=None) -> "ChaosEngine":
        environ = os.environ if environ is None else environ
        spec = environ.get(CHAOS_ENV, "")
        try:
            seed = int(environ.get(CHAOS_SEED_ENV, "0"))
        except ValueError:
            seed = 0
        return cls(parse_rules(spec) if spec else {}, seed=seed)

    @property
    def active(self) -> bool:
        return bool(self.rules)

    def inject(self, point: str, telemetry=None,
               label: str | None = None) -> None:
        """One pass through ``point``: raise/kill when a rule fires.

        Every rule of the point that applies to ``label`` counts the hit;
        the first that fires raises.  No-op (a dict lookup) when the point
        is unarmed, so production paths can call this unconditionally.
        """
        rules = self._by_point.get(point)
        if rules is None:
            return
        fired = None
        with self._lock:
            for rule in rules:
                if not rule.applies(label):
                    continue
                hit = self.hits.get(rule.key, 0) + 1
                self.hits[rule.key] = hit
                if fired is None and rule.fires(hit, self.seed):
                    fired = rule, hit
                    self.faults[rule.key] = self.faults.get(rule.key, 0) + 1
        if fired is None:
            return
        rule, hit = fired
        if telemetry is not None:
            telemetry.counter(
                "repro_chaos_faults_total", "chaos faults injected, by point"
            ).labels(point=point).inc()
        message = f"chaos fault injected: point {rule.key} (hit {hit})"
        if rule.kill:
            os._exit(KILL_EXIT_CODE)
        if point in _IO_POINTS:
            raise ChaosIOFault(message, point)
        raise ChaosFault(message, point)


_engine: ChaosEngine | None = None
_engine_lock = threading.Lock()


def engine() -> ChaosEngine:
    """The process-wide engine, lazily armed from the environment."""
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                _engine = ChaosEngine.from_env()
    return _engine


def configure(rules_or_engine=None, seed: int = 0) -> ChaosEngine:
    """Install an explicit engine (test seam); returns it.

    Accepts a :class:`ChaosEngine`, a spec string, a rules dict, or
    ``None`` for an inert engine.
    """
    global _engine
    if isinstance(rules_or_engine, ChaosEngine):
        built = rules_or_engine
    elif isinstance(rules_or_engine, str):
        built = ChaosEngine(parse_rules(rules_or_engine), seed=seed)
    else:
        built = ChaosEngine(rules_or_engine, seed=seed)
    with _engine_lock:
        _engine = built
    return built


def reset() -> None:
    """Drop the cached engine; the next :func:`inject` re-reads the env.

    Tests call this after ``monkeypatch.setenv(CHAOS_ENV, ...)`` — and
    *before* forking worker pools, so the workers parse the new spec
    themselves instead of inheriting a stale parsed engine.
    """
    global _engine
    with _engine_lock:
        _engine = None


def inject(point: str, telemetry=None, label: str | None = None) -> None:
    """Module-level convenience over :meth:`ChaosEngine.inject`."""
    engine().inject(point, telemetry=telemetry, label=label)


"""Project-invariant rules (L001–L005).

These encode conventions the codebase relies on but Python cannot
enforce: the fingerprint/execution-only split of config fields, the
zero-cost-when-off telemetry discipline in hot paths, the stdlib-only
layer contract, serialization back-compat, and picklability of objects
shipped to worker processes.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Finding, Rule, SEVERITY_ERROR
from repro.lint.project import (
    MARKER_HOT_PATH,
    MARKER_WORKER_SHIPPED,
    Project,
    SourceFile,
    _dotted,
    stdlib_module_names,
)

#: Layers that must import nothing beyond the stdlib and the project
#: itself (L003).  Matched against path segments, so both the package
#: directory form (``sat/``) and the single-module form (``chaos.py``)
#: are covered.  ``lint`` polices itself.
STDLIB_ONLY_LAYERS = frozenset(
    {"sat", "service", "telemetry", "chaos", "store", "parallel", "lint"}
)

#: Declared third-party exceptions for L003: project-relative path
#: suffix → importable top-level modules allowed there.  Empty today —
#: every stdlib-only layer really is stdlib-only — but this is the one
#: place a future exception (e.g. numpy in a new sat backend) must be
#: declared to land.
ALLOWED_THIRD_PARTY: dict[str, frozenset[str]] = {}

#: Names that identify a telemetry-ish object in hot paths (L002): the
#: facade itself, its sub-objects, and the ``_tele_*`` instrument
#: attributes the solver caches.
_TELEMETRY_NAMES = frozenset({"telemetry", "progress", "tracer", "metrics", "flight"})


# ---------------------------------------------------------------------------
# L001 — config fields classified: execution-only or fingerprinted
# ---------------------------------------------------------------------------

def _find_execution_only(project: Project):
    """``(file, lineno, fields)`` of the EXECUTION_ONLY_FIELDS tuple."""
    for source_file in project.files:
        if source_file.tree is None:
            continue
        for node in source_file.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "EXECUTION_ONLY_FIELDS":
                    names: list[str] = []
                    if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                        for element in node.value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                names.append(element.value)
                    return source_file, node.lineno, names
    return None


def _find_config_class(project: Project, anchor_file: SourceFile):
    """The config dataclass: ``FermihedralConfig`` if present, else the
    first dataclass defined next to EXECUTION_ONLY_FIELDS (fixtures)."""
    info = project.classes.get("FermihedralConfig")
    if info is not None and info.is_dataclass():
        return info
    for info in anchor_file.classes.values():
        if info.is_dataclass():
            return info
    return None


def _fingerprint_reachable(function: ast.FunctionDef, config_fields,
                           execution_only) -> set[str]:
    """Field names that reach the canonical fingerprint payload.

    Two supported shapes: the fail-closed ``dataclasses.asdict`` +
    ``pop`` pattern (everything minus the popped keys — including the
    canonical ``for name in EXECUTION_ONLY_FIELDS: data.pop(name)``
    loop) and an explicit dict build (exactly the string keys
    mentioned).
    """
    uses_asdict = False
    popped: set[str] = set()
    explicit: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            iter_name = _dotted(node.iter) or ""
            if iter_name.split(".")[-1] == "EXECUTION_ONLY_FIELDS":
                loop_var = node.target.id
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and (_dotted(call.func) or "").split(".")[-1] == "pop"
                        and call.args
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id == loop_var
                    ):
                        popped.update(execution_only)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            tail = dotted.split(".")[-1]
            if tail == "asdict":
                uses_asdict = True
            elif tail == "pop" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    popped.add(first.value)
            elif tail == "get" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    explicit.add(first.value)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    explicit.add(key.value)
        elif isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, str
            ):
                explicit.add(node.slice.value)
        elif isinstance(node, ast.Attribute):
            # explicit ``config.field`` reads also pull a field in
            if node.attr in config_fields:
                explicit.add(node.attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.slice, ast.Constant
                ) and isinstance(target.slice.value, str):
                    popped.add(target.slice.value)
    if uses_asdict:
        return set(config_fields) - popped
    return explicit & set(config_fields)


def check_l001(project: Project, rule: Rule) -> list[Finding]:
    anchor = _find_execution_only(project)
    if anchor is None:
        return []
    anchor_file, anchor_line, execution_only = anchor
    config = _find_config_class(project, anchor_file)
    if config is None:
        return []
    fields = config.dataclass_fields()

    canonical = None
    for source_file in project.files:
        candidate = source_file.functions.get("canonical_config")
        if candidate is not None:
            canonical = candidate
            break
    if canonical is None:
        return []  # partial lint run: fingerprint module not in scope
    reachable = _fingerprint_reachable(canonical.node, fields, execution_only)

    field_lines = {
        statement.target.id: statement.lineno
        for statement in config.node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    }

    findings = []
    for name in fields:
        line = field_lines.get(name, config.node.lineno)
        if name in execution_only and name in reachable:
            findings.append(Finding(
                rule=rule.id, severity=rule.severity,
                path=config.file.rel, line=line,
                message=(
                    f"execution-only config field {name!r} still reaches the "
                    "fingerprint: canonical_config() must drop it or the "
                    "EXECUTION_ONLY_FIELDS entry must go"
                ),
            ))
        elif name not in execution_only and name not in reachable:
            findings.append(Finding(
                rule=rule.id, severity=rule.severity,
                path=config.file.rel, line=line,
                message=(
                    f"config field {name!r} is unclassified: add it to "
                    "EXECUTION_ONLY_FIELDS or make canonical_config() "
                    "fingerprint it — an unclassified knob silently poisons "
                    "cache keys"
                ),
            ))
    for name in execution_only:
        if name not in fields:
            findings.append(Finding(
                rule=rule.id, severity=rule.severity,
                path=anchor_file.rel, line=anchor_line,
                message=(
                    f"EXECUTION_ONLY_FIELDS names {name!r}, which is not a "
                    "field of the config dataclass (stale entry)"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# L002 — hot paths gate telemetry behind `telemetry is None`-style checks
# ---------------------------------------------------------------------------

def _telemetryish(expr: ast.expr) -> str | None:
    """Dotted name when *expr* denotes a telemetry-ish object."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    for segment in dotted.split("."):
        if segment in _TELEMETRY_NAMES or segment.startswith("_tele"):
            return dotted
    return None


def _guard_polarity(test: ast.expr) -> tuple[bool, bool]:
    """``(guards_body, guards_after_exit)`` for an if-test.

    ``guards_body``: the true branch proves a telemetry object non-None
    (``X is not None``, bare ``X``, or an ``and`` chain containing one).
    ``guards_after_exit``: the true branch proves it None (``X is None``,
    ``not X``) — so when that branch terminates, the code after the
    ``if`` is guarded.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left = _telemetryish(test.left)
        is_none = (
            len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        if left and is_none:
            if isinstance(test.ops[0], ast.IsNot):
                return True, False
            if isinstance(test.ops[0], ast.Is):
                return False, True
    if _telemetryish(test):
        return True, False
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        if _telemetryish(test.operand):
            return False, True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        body = any(_guard_polarity(value)[0] for value in test.values)
        return body, False
    return False, False


def _terminates(statements: list[ast.stmt]) -> bool:
    return bool(statements) and isinstance(
        statements[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _HotPathChecker:
    """Flags telemetry attribute-calls not dominated by a gate.

    Passing a telemetry object as a *call argument* (the ``_span(telemetry,
    ...)`` helper idiom) is always allowed — only attribute access on a
    possibly-None object costs anything in the hot loop.
    """

    def __init__(self, rule: Rule, source_file: SourceFile, qualname: str):
        self.rule = rule
        self.file = source_file
        self.qualname = qualname
        self.findings: list[Finding] = []

    def check(self, function: ast.FunctionDef) -> list[Finding]:
        self._statements(function.body, guarded=False)
        return self.findings

    def _statements(self, statements: list[ast.stmt], guarded: bool) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a closure runs later; gates at the definition site do
                # not dominate its body
                outer = self.qualname
                self.qualname = f"{outer}.{statement.name}"
                self._statements(statement.body, guarded=False)
                self.qualname = outer
                continue
            if isinstance(statement, ast.If):
                guards_body, guards_exit = _guard_polarity(statement.test)
                self._expression(statement.test, guarded)
                self._statements(statement.body, guarded or guards_body)
                self._statements(statement.orelse, guarded or guards_exit)
                if (
                    guards_exit
                    and _terminates(statement.body)
                    and not statement.orelse
                ):
                    guarded = True
                continue
            if isinstance(statement, (ast.For, ast.AsyncFor)):
                self._expression(statement.iter, guarded)
                self._statements(statement.body, guarded)
                self._statements(statement.orelse, guarded)
                continue
            if isinstance(statement, ast.While):
                self._expression(statement.test, guarded)
                self._statements(statement.body, guarded)
                self._statements(statement.orelse, guarded)
                continue
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    self._expression(item.context_expr, guarded)
                self._statements(statement.body, guarded)
                continue
            if isinstance(statement, ast.Try):
                self._statements(statement.body, guarded)
                for handler in statement.handlers:
                    self._statements(handler.body, guarded)
                self._statements(statement.orelse, guarded)
                self._statements(statement.finalbody, guarded)
                continue
            if isinstance(statement, ast.ClassDef):
                continue
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self._expression(child, guarded)

    def _expression(self, expr: ast.expr, guarded: bool) -> None:
        if isinstance(expr, ast.IfExp):
            guards_body, guards_exit = _guard_polarity(expr.test)
            self._expression(expr.test, guarded)
            self._expression(expr.body, guarded or guards_body)
            self._expression(expr.orelse, guarded or guards_exit)
            return
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            accumulated = guarded
            for value in expr.values:
                self._expression(value, accumulated)
                accumulated = accumulated or _guard_polarity(value)[0]
            return
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Attribute) and not guarded:
                target = _telemetryish(expr.func.value)
                if target is not None:
                    self.findings.append(Finding(
                        rule=self.rule.id, severity=self.rule.severity,
                        path=self.file.rel, line=expr.lineno,
                        message=(
                            f"unguarded telemetry call "
                            f"{target}.{expr.func.attr}(...) in hot-path "
                            f"function {self.qualname!r}; dominate it with "
                            "an `if telemetry is None`-style gate (the "
                            "zero-cost-when-off contract)"
                        ),
                    ))
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._expression(child, guarded)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expression(child, guarded)


def check_l002(project: Project, rule: Rule) -> list[Finding]:
    findings = []
    for source_file in project.files:
        if source_file.tree is None or not source_file.markers:
            continue
        stack: list[tuple[ast.AST, str]] = [(source_file.tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    if isinstance(child, ast.FunctionDef) and source_file.marker_near(
                        child.lineno, MARKER_HOT_PATH
                    ):
                        checker = _HotPathChecker(rule, source_file, qualname)
                        findings.extend(checker.check(child))
                    stack.append((child, f"{qualname}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
    return findings


# ---------------------------------------------------------------------------
# L003 — stdlib-only import boundary
# ---------------------------------------------------------------------------

def _layer_of(rel: str) -> str | None:
    parts = rel.split("/")
    # Nearest enclosing package wins, so a fixture tree like
    # tests/lint/fixtures/.../sat/bad.py reports layer 'sat', not 'lint'.
    for part in reversed(parts[:-1]):
        if part in STDLIB_ONLY_LAYERS:
            return part
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if stem in STDLIB_ONLY_LAYERS:
        return stem
    return None


def check_l003(project: Project, rule: Rule) -> list[Finding]:
    stdlib = stdlib_module_names()
    findings = []
    for source_file in project.files:
        if source_file.tree is None:
            continue
        layer = _layer_of(source_file.rel)
        if layer is None:
            continue
        allowed: set[str] = set()
        for suffix, modules in ALLOWED_THIRD_PARTY.items():
            if source_file.rel.endswith(suffix):
                allowed |= set(modules)
        for node in ast.walk(source_file.tree):
            imported: list[tuple[str, int]] = []
            if isinstance(node, ast.Import):
                imported = [(alias.name.split(".")[0], node.lineno)
                            for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative import: intra-package by definition
                imported = [(node.module.split(".")[0], node.lineno)]
            for top, lineno in imported:
                if top in stdlib or top in project.top_names or top in allowed:
                    continue
                findings.append(Finding(
                    rule=rule.id, severity=rule.severity,
                    path=source_file.rel, line=lineno,
                    message=(
                        f"layer {layer!r} is stdlib-only by contract but "
                        f"imports {top!r}; declare an exception in "
                        "repro.lint.invariants.ALLOWED_THIRD_PARTY if this "
                        "dependency is intentional"
                    ),
                ))
    return findings


# ---------------------------------------------------------------------------
# L004 — from_dict back-compat: defaulted fields read with .get()
# ---------------------------------------------------------------------------

def _bare_subscripts(expr: ast.expr):
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            base = _dotted(node.value)
            if base is not None:
                yield node, base, node.slice.value


def _dataclass_tables(project: Project) -> dict[str, dict[str, bool]]:
    tables = {}
    for name, info in project.classes.items():
        if info.is_dataclass():
            fields = info.dataclass_fields()
            if fields:
                tables[name] = fields
    return tables


def check_l004(project: Project, rule: Rule) -> list[Finding]:
    tables = _dataclass_tables(project)
    if not tables:
        return []
    findings = []
    for source_file in project.files:
        if source_file.tree is None:
            continue
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not (node.name == "from_dict" or node.name.endswith("_from_dict")):
                continue
            enclosing = _enclosing_class(source_file, node)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                target = _dotted(call.func)
                if target is None:
                    continue
                tail = target.split(".")[-1]
                if tail == "cls" and enclosing in tables:
                    tail = enclosing
                fields = tables.get(tail)
                if fields is None:
                    continue
                ordered = list(fields)
                bindings: list[tuple[str, ast.expr]] = []
                for index, arg in enumerate(call.args):
                    if index < len(ordered):
                        bindings.append((ordered[index], arg))
                for keyword in call.keywords:
                    if keyword.arg is not None:
                        bindings.append((keyword.arg, keyword.value))
                for field_name, value in bindings:
                    if not fields.get(field_name, False):
                        continue  # required field: bare subscript is fine
                    for sub, base, key in _bare_subscripts(value):
                        findings.append(Finding(
                            rule=rule.id, severity=rule.severity,
                            path=source_file.rel, line=sub.lineno,
                            message=(
                                f"back-compat: defaulted field "
                                f"{field_name!r} of {tail} is read with a "
                                f"bare subscript {base}[{key!r}] in "
                                f"{node.name}(); use .get({key!r}, ...) so "
                                "payloads serialized before the field "
                                "existed still decode"
                            ),
                        ))
    return findings


def _enclosing_class(source_file: SourceFile, function: ast.FunctionDef) -> str | None:
    for info in source_file.classes.values():
        if function in info.node.body:
            return info.name
    return None


# ---------------------------------------------------------------------------
# L005 — worker-shipped objects must pickle cleanly
# ---------------------------------------------------------------------------

def check_l005(project: Project, rule: Rule) -> list[Finding]:
    findings = []
    for source_file in project.files:
        for info in source_file.classes.values():
            if not source_file.marker_near(info.node.lineno, MARKER_WORKER_SHIPPED):
                continue
            if not info.unpicklable_attrs or info.defines_pickle_protocol:
                continue
            attrs = ", ".join(
                f"self.{name} (line {line})"
                for name, line in sorted(info.unpicklable_attrs.items())
            )
            findings.append(Finding(
                rule=rule.id, severity=rule.severity,
                path=source_file.rel, line=info.node.lineno,
                message=(
                    f"worker-shipped class {info.name!r} holds unpicklable "
                    f"state ({attrs}) but defines no __getstate__/"
                    "__reduce__; it will crash the first time it crosses "
                    "a process boundary"
                ),
            ))
    return findings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RULES = [
    Rule(
        id="L001",
        severity=SEVERITY_ERROR,
        summary="every config field classified: execution-only or fingerprinted",
        rationale=(
            "Cache keys are built from canonical_config(), which drops the "
            "EXECUTION_ONLY_FIELDS. A new FermihedralConfig knob that is in "
            "neither set changes results without changing fingerprints (or "
            "vice versa), silently poisoning the compilation cache. The rule "
            "forces every field into exactly one camp."
        ),
        bad_example=(
            "@dataclass(frozen=True)\n"
            "class FermihedralConfig:\n"
            "    budget: int = 0\n"
            "    shiny_new_knob: bool = False   # in neither set -> L001\n"
        ),
        good_example=(
            "EXECUTION_ONLY_FIELDS = (..., \"shiny_new_knob\")\n"
            "# or: let canonical_config()'s asdict() path fingerprint it\n"
        ),
        checker=check_l001,
    ),
    Rule(
        id="L002",
        severity=SEVERITY_ERROR,
        summary="hot paths gate telemetry behind `telemetry is None` checks",
        rationale=(
            "The solver's propagate/analyze loop and the descent rung loop "
            "run millions of iterations; telemetry must cost zero when off. "
            "Functions marked `# repro-lint: hot-path` may only touch "
            "telemetry objects under a dominating None-gate. Passing "
            "telemetry as a call argument (the _span(telemetry, ...) idiom) "
            "is always fine — only attribute access on a possibly-None "
            "object is flagged."
        ),
        bad_example=(
            "# repro-lint: hot-path\n"
            "def solve(self):\n"
            "    self.telemetry.counter(\"x\").inc()   # unguarded -> L002\n"
        ),
        good_example=(
            "# repro-lint: hot-path\n"
            "def solve(self):\n"
            "    if self.telemetry is not None:\n"
            "        self.telemetry.counter(\"x\").inc()\n"
        ),
        checker=check_l002,
    ),
    Rule(
        id="L003",
        severity=SEVERITY_ERROR,
        summary="sat/service/telemetry/chaos/store/parallel/lint are stdlib-only",
        rationale=(
            "The solver, service, and tooling layers must run on a bare "
            "interpreter: workers spawn them in subprocesses, CI smoke jobs "
            "import them before dependencies install, and the linter itself "
            "must lint a broken tree. Third-party imports are allowed only "
            "via an explicit ALLOWED_THIRD_PARTY declaration. This rule "
            "checks direct imports only; tests/test_import_budget.py holds "
            "the indirect ones by importing these layers, and running the "
            "CLI's compiles, with numpy and networkx blocked."
        ),
        bad_example=(
            "# src/repro/sat/fancy.py\n"
            "import numpy as np            # undeclared -> L003\n"
        ),
        good_example=(
            "# repro/lint/invariants.py\n"
            "ALLOWED_THIRD_PARTY = {\"sat/fancy.py\": frozenset({\"numpy\"})}\n"
        ),
        checker=check_l003,
    ),
    Rule(
        id="L004",
        severity=SEVERITY_ERROR,
        summary="from_dict reads defaulted fields with .get(), never d[...]",
        rationale=(
            "Serialized payloads outlive the code that wrote them: caches, "
            "checkpoints, and proof artifacts from older versions must keep "
            "loading. A dataclass field added later always has a default; "
            "its from_dict read must be .get(key, default) so pre-field "
            "payloads decode. Required (no-default) fields may subscript — "
            "their absence is corruption, and KeyError is the right noise."
        ),
        bad_example=(
            "return DescentResult(\n"
            "    weight=data[\"weight\"],          # required: fine\n"
            "    degraded=data[\"degraded\"],      # defaulted -> L004\n"
            ")\n"
        ),
        good_example=(
            "return DescentResult(\n"
            "    weight=data[\"weight\"],\n"
            "    degraded=data.get(\"degraded\", False),\n"
            ")\n"
        ),
        checker=check_l004,
    ),
    Rule(
        id="L005",
        severity=SEVERITY_ERROR,
        summary="worker-shipped classes with locks/handles define __getstate__",
        rationale=(
            "Objects crossing the ProcessBatchExecutor process boundary "
            "are pickled. threading primitives and open file handles do not "
            "pickle; a class marked `# repro-lint: worker-shipped` that "
            "holds one must define __getstate__/__reduce__ (the "
            "CompilationCache.__getstate__ and PauliString.__reduce__ "
            "lessons, as a rule)."
        ),
        bad_example=(
            "# repro-lint: worker-shipped\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()   # no __getstate__ -> L005\n"
        ),
        good_example=(
            "    def __getstate__(self):\n"
            "        return {\"root\": self.root}     # rebuild the lock on load\n"
        ),
        checker=check_l005,
    ),
]

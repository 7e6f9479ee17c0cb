"""Benchmark-side spans around the public entry point of each layer.

Nothing here edits or imports-for-effect anything in ``src/``: the
recorder swaps a timing wrapper in for a layer's entry point (a module
attribute or a class method) when :meth:`SpanRecorder.install` runs, and
puts the original back on :meth:`SpanRecorder.uninstall`.  The untraced
benchmark run never calls ``install``.

A wrapped call is a span.  Spans nest through a per-thread stack, and a
layer's *self time* is its spans' wall time minus the part their child
spans cover, so the self times of all layers plus the time spent outside
every layer add up to the wall time of the traced operation.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict

#: Entry points of the compile path: ``(module, attribute, layer, hook)``.
#: ``attribute`` may be ``Class.method``.  Functions that a caller
#: imported by name are patched in the caller's namespace, which is
#: where the call looks them up.
COMPILE_PATCHES = (
    ("repro.core.descent", "build_base_formula", "encoder", "encoder"),
    ("repro.core.encoder", "FermihedralEncoder.weight_ladder", "ladder",
     "ladder"),
    ("repro.sat.preprocess", "preprocess", "preprocess", "preprocess"),
    ("repro.sat.solver", "CdclSolver.__init__", "solver", None),
    ("repro.sat.solver", "CdclSolver.solve", "solver", "solve"),
    ("repro.sat.drat", "build_trace", "drat", "drat"),
    ("repro.sat.drat", "ProofTrace.sha256", "drat", None),
    ("repro.core.pipeline", "descend", "descent", "descent"),
    ("repro.core.pipeline", "anneal_pairing", "annealing", None),
    ("repro.core.pipeline", "best_baseline", "baselines", None),
    ("repro.core.pipeline", "candidate_baselines", "baselines", None),
    ("repro.core.pipeline", "connectivity_weights", "hardware", None),
    ("repro.hardware.cost", "HardwareCostModel.__init__", "hardware", None),
    ("repro.hardware.cost", "HardwareCostModel.best_encoding", "hardware",
     "hardware"),
)

#: Entry points of the service path, installed in the daemon process
#: (and inherited by its forked worker) on a traced run.
SERVICE_PATCHES = (
    ("repro.store.cache", "CompilationCache.get", "cache.get", "cache_get"),
    ("repro.store.cache", "CompilationCache.put", "cache.put", "cache_put"),
    ("repro.store.cache", "CompilationCache.put_proof", "cache.put",
     "cache_put_proof"),
    ("repro.service.daemon", "job_from_spec", "fingerprint", None),
    ("repro.service.daemon", "compile_job_key", "fingerprint", None),
    ("repro.encodings.serialization", "result_to_dict", "serialization",
     None),
    ("repro.encodings.serialization", "result_from_dict", "serialization",
     None),
    ("repro.service.server", "_ServiceRequestHandler._send_json", "http",
     "send_json"),
    ("repro.parallel.executor", "run_compile_job", "worker.job", None),
)


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` of a patch target."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """Per-layer self time, call counts and work counts of wrapped calls.

    ``dump_dir``: when set, a process other than the one that installed
    the wrappers (a forked worker) rewrites ``spans-<pid>.json`` there each
    time one of its outermost spans closes, so its totals survive the
    worker's abrupt exit.
    """

    def __init__(self, dump_dir: str | None = None):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._dump_dir = dump_dir
        self._owner_pid = os.getpid()

    # -- patching -------------------------------------------------------------

    def install(self, patches) -> "SpanRecorder":
        for module_name, attribute, layer, hook in patches:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            post = getattr(self, f"_count_{hook}") if hook else None
            setattr(owner, name, self.wrap(layer, original, post))
            self._originals.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def wrap(self, layer: str, function, post=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                with recorder._lock:
                    recorder.self_s[layer] += elapsed - children
                    recorder.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                with recorder._lock:
                    post(result, args)
            if not stack and recorder._dump_dir is not None \
                    and os.getpid() != recorder._owner_pid:
                recorder.dump()
            return result

        return traced

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- work counters (called with the lock held) -------------------------------

    def _count_encoder(self, result, args) -> None:
        encoder, _ = result
        self.counts["encoder.clauses"] += encoder.formula.num_clauses
        self.counts["encoder.vars"] += encoder.formula.num_variables
        self._local.base_clauses = encoder.formula.num_clauses

    def _count_ladder(self, result, args) -> None:
        encoder = args[0]
        base = getattr(self._local, "base_clauses", 0)
        self.counts["ladder.clauses"] += encoder.formula.num_clauses - base

    def _count_preprocess(self, result, args) -> None:
        self.counts["preprocess.clauses_out"] += result.stats.simplified_clauses
        self.counts["preprocess.vars_eliminated"] += (
            result.stats.eliminated_variables)

    def _count_solve(self, result, args) -> None:
        self.counts["solver.calls"] += 1
        self.counts["solver.conflicts"] += result.stats.conflicts
        self.counts["solver.propagations"] += result.stats.propagations
        self.counts["solver.definitive"] += result.status in ("SAT", "UNSAT")

    def _count_drat(self, result, args) -> None:
        self.counts["drat.lines"] += result.num_proof_lines

    def _count_descent(self, result, args) -> None:
        self.counts["descent.rungs"] += len(result.steps)
        self.counts["descent.repairs"] += result.repairs

    def _count_hardware(self, result, args) -> None:
        self.counts["hardware.candidates"] += len(args[1])
        self.counts["hardware.swaps"] += result[1].swap_count

    def _count_cache_get(self, result, args) -> None:
        self.counts["cache.hits"] += result is not None

    def _count_cache_put(self, result, args) -> None:
        self.counts["cache.bytes_written"] += result.stat().st_size

    def _count_cache_put_proof(self, result, args) -> None:
        self.counts["cache.bytes_written"] += result[1].stat().st_size

    def _count_send_json(self, result, args) -> None:
        self.counts["http.bytes"] += len(json.dumps(args[1])) + 1

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "counts": dict(self.counts)}

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    def forget_parent(self) -> None:
        """In a freshly forked child: drop the parent's totals and locks."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def dump(self, name: str | None = None) -> None:
        """Write this process's totals to ``spans-<name or pid>.json``
        atomically."""
        path = os.path.join(self._dump_dir,
                            f"spans-{name or os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)


def merge(snapshots) -> dict:
    """Sum several :meth:`SpanRecorder.snapshot` dicts."""
    total = {"self_s": defaultdict(float), "calls": defaultdict(int),
             "counts": defaultdict(float)}
    for snapshot in snapshots:
        for part in total:
            for name, value in snapshot.get(part, {}).items():
                total[part][name] += value
    return {part: dict(values) for part, values in total.items()}


def subtract(after: dict, before: dict) -> dict:
    """``after - before``, part by part (totals over a window)."""
    return {part: {name: value - before.get(part, {}).get(name, 0)
                   for name, value in values.items()}
            for part, values in after.items()}


def load_dumps(dump_dir: str) -> dict[str, dict]:
    """Every ``spans-<name>.json`` totals file in ``dump_dir``, by name."""
    snapshots = {}
    for filename in sorted(os.listdir(dump_dir)):
        if filename.startswith("spans-") and filename.endswith(".json"):
            with open(os.path.join(dump_dir, filename)) as handle:
                snapshots[filename[len("spans-"):-len(".json")]] = \
                    json.load(handle)
    return snapshots

"""The in-process compile workloads: ``proof-4`` and ``ladder-6``.

One serial :class:`~repro.core.pipeline.FermihedralCompiler` per op, no
cache.  A run compiles whole passes over the instance list, every pass
in a seeded order; everything the benchmark checks happens after the
measured loop, so the timed region holds compiles only.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass

from perfbench import spec
from perfbench.calibration import calibrate, reference_seconds
from perfbench.tracing import COMPILE_PATCHES, SpanRecorder
from repro.core.config import FermihedralConfig, SolverBudget
from repro.core.descent import measured_weight
from repro.core.pipeline import FermihedralCompiler
from repro.core.verify import verify_encoding
from repro.encodings.bravyi_kitaev import bravyi_kitaev
from repro.fermion.catalog import parse_model
from repro.hardware import HardwareCostModel, resolve_device
from repro.sat.drat import check_trace


@dataclass
class Instance:
    """One compile job plus the Bravyi-Kitaev figures it is judged by."""

    name: str
    modes: int
    method: str
    hamiltonian: object
    device: str | None
    config: FermihedralConfig
    bk_weight: int
    bk_2q: int | None

    def compile(self):
        compiler = FermihedralCompiler(self.modes, self.config,
                                       device=self.device)
        return compiler.compile(method=self.method,
                                hamiltonian=self.hamiltonian,
                                seed=spec.ANNEALING_SEED)


def make_instance(modes, method, model, device, config) -> Instance:
    """Build one instance and its Bravyi-Kitaev references."""
    hamiltonian = parse_model(model) if model else None
    reference = bravyi_kitaev(modes)
    bk_2q = None
    if device is not None:
        cost = HardwareCostModel(resolve_device(device)).cost_of_encoding(
            reference, hamiltonian)
        bk_2q = cost.two_qubit_count
    name = f"{method}/{model or f'N={modes}'}@{device or 'none'}"
    return Instance(name, modes, method, hamiltonian, device, config,
                    measured_weight(reference, hamiltonian), bk_2q)


def workload_config(workload: str, smoke: bool) -> FermihedralConfig:
    if workload == "proof-4":
        return FermihedralConfig(
            budget=SolverBudget(max_conflicts=spec.PROOF4_CONFLICTS_PER_RUNG),
            proof=True)
    conflicts = (spec.SMOKE_LADDER_CONFLICTS_PER_RUNG if smoke
                 else spec.LADDER6_CONFLICTS_PER_RUNG)
    return FermihedralConfig(algebraic_independence=False,
                             budget=SolverBudget(max_conflicts=conflicts))


def make_instances(workload: str, smoke: bool) -> list[Instance]:
    if smoke:
        rows = spec.SMOKE_INSTANCES[workload]
    elif workload == "proof-4":
        rows = spec.PROOF4_INSTANCES
    else:
        rows = spec.LADDER6_INSTANCES
    config = workload_config(workload, smoke)
    return [make_instance(*row, config) for row in rows]


def warmup_instance() -> Instance:
    """The small N=3 proof job the untimed warm-up compiles run."""
    return make_instance(3, "independent", None, None,
                         workload_config("proof-4", smoke=False))


def signature(result) -> tuple:
    """Everything about a compile that must repeat exactly."""
    descent = result.descent
    return (
        result.weight,
        result.proved_optimal,
        tuple((step.bound, step.status, step.conflicts, step.propagations)
              for step in descent.steps),
        descent.repairs,
        None if result.hardware is None else result.hardware.two_qubit_count,
        None if result.proof is None else result.proof["sha256"],
    )


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def typical_latency(samples) -> float:
    """Geometric mean over instances of each instance's median latency,
    from ``(instance, seconds)`` pairs.

    A median pooled over instances of very different sizes jumps from one
    instance's cluster to the next as the host drifts; this moves with it
    smoothly, and every instance counts the same.
    """
    by_instance: dict = {}
    for key, seconds in samples:
        by_instance.setdefault(key, []).append(seconds)
    return geometric_mean(statistics.median(values)
                          for values in by_instance.values())


class CompileRun:
    """One run of ``proof-4`` or ``ladder-6``."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.instances = make_instances(workload, smoke)
        self.seconds = seconds
        # A traced run compiles every op twice (untraced and traced), so
        # it makes half the passes and lasts about as long.
        self.traced_passes = 2 if smoke else max(
            2, round(seconds / (2 * spec.NOMINAL_PASS_S[workload])))
        self.failures: list[str] = []
        self.failed = 0
        #: (instance, result, wall seconds) of every timed compile.
        self.ops: list[tuple[Instance, object, float]] = []

    # -- measuring -------------------------------------------------------------

    def warm_up(self) -> None:
        warm = warmup_instance()
        for _ in range(spec.WARMUP_COMPILES if not self.smoke else 1):
            warm.compile()

    def schedule(self, passes: int) -> list[Instance]:
        """``passes`` whole passes over the instances, each shuffled."""
        order = []
        for _ in range(passes):
            batch = list(self.instances)
            self.rng.shuffle(batch)
            order.extend(batch)
        return order

    def measure(self) -> dict:
        """Untraced run: the end-to-end metrics."""
        self.warm_up()
        min_passes = 2 if self.smoke else max(2, math.ceil(
            spec.MIN_TIMED_COMPILES / len(self.instances)))
        started = time.perf_counter()
        passes = 0
        # Whole passes, at least ``min_passes``; another only while it
        # should still end within the run's seconds, so a slow host makes
        # fewer.
        calibrated = self.workload in spec.CALIBRATED_COMPILES
        reference = []
        while True:
            for instance in self.schedule(1):
                before = calibrate() if calibrated else None
                op_start = time.perf_counter()
                result = instance.compile()
                elapsed = time.perf_counter() - op_start
                self.ops.append((instance, result, elapsed))
                if calibrated:
                    reference.append((instance.name, reference_seconds(
                        elapsed, (before + calibrate()) / 2)))
            passes += 1
            spent = time.perf_counter() - started
            if passes >= min_passes \
                    and spent * (passes + 1) / passes > self.seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.check()
        wall = [(instance.name, seconds) for instance, _, seconds in self.ops]
        metrics = {
            "compiles_per_s": len(self.ops) / spent,
            "compile_s_p50": typical_latency(wall),
            "peak_rss_mb": peak_kb / 1024.0,
            **self.quality(),
            "_samples": {"compile_s_p50": len(wall)},
        }
        if calibrated:
            metrics["_wall"] = {"compiles_per_s": metrics["compiles_per_s"],
                                "compile_s_p50": metrics["compile_s_p50"]}
            metrics["compiles_per_s"] = len(reference) / sum(
                seconds for _, seconds in reference)
            metrics["compile_s_p50"] = typical_latency(reference)
        return metrics

    def measure_traced(self) -> dict:
        """Traced run: each op runs untraced and traced back to back (in
        alternating order), so the overhead is a paired comparison."""
        self.warm_up()
        recorder = SpanRecorder()
        plain_wall = traced_wall = 0.0
        totals: dict = {"self_s": {}, "counts": {}}
        per_op_counts: dict[str, list] = {}
        for index, instance in enumerate(self.schedule(self.traced_passes)):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    recorder.reset()
                    recorder.install(COMPILE_PATCHES)
                op_start = time.perf_counter()
                try:
                    result = instance.compile()
                finally:
                    elapsed = time.perf_counter() - op_start
                    if traced:
                        recorder.uninstall()
                if not traced:
                    plain_wall += elapsed
                    continue
                traced_wall += elapsed
                self.ops.append((instance, result, elapsed))
                snapshot = recorder.snapshot()
                for part in totals:
                    for name, value in snapshot[part].items():
                        totals[part][name] = totals[part].get(name, 0) + value
                per_op_counts.setdefault(instance.name, []).append(
                    tuple(sorted(snapshot["counts"].items())))
        for name, seen in per_op_counts.items():
            if len(set(seen)) != 1:
                self.failures.append(f"{name}: layer counts differ between "
                                     f"passes: {seen}")
        check_s = self.check()
        return layer_metrics(
            totals, ops=len(self.ops), op_wall=traced_wall,
            overhead=traced_wall / plain_wall - 1.0,
            device_ops=sum(1 for op in self.ops if op[0].device),
            proved=sum(op[1].proved_optimal for op in self.ops),
            check_s=check_s)

    # -- checking (outside the timed region) ------------------------------------

    def check(self) -> float:
        """Every correctness gate and the determinism self-check.

        Returns the mean ``check_trace`` time per distinct certificate.
        """
        seen: dict[str, tuple] = {}
        certificates: dict[str, object] = {}
        failed_ops: set[int] = set()
        certificate_ops: dict[str, list[int]] = {}
        for index, (instance, result, _) in enumerate(self.ops):
            problems = []
            if not verify_encoding(result.encoding).valid:
                problems.append("encoding fails verify_encoding")
            # The descent only tightens from the lightest baseline, and
            # routing never picks an encoding that routes worse than a
            # textbook candidate; annealed pairings have no such bound.
            if instance.device is not None:
                if result.hardware is None:
                    problems.append("device-bound compile has no routed cost")
                elif result.hardware.two_qubit_count > instance.bk_2q:
                    problems.append(
                        f"{result.hardware.two_qubit_count} routed two-qubit "
                        f"gates, Bravyi-Kitaev needs {instance.bk_2q}")
            elif instance.method == "independent" \
                    and result.weight > instance.bk_weight:
                problems.append(f"weight {result.weight} above the "
                                f"Bravyi-Kitaev baseline {instance.bk_weight}")
            if self.workload == "proof-4":
                expected = spec.EXPECTED_OPTIMA[instance.modes]
                if result.weight != expected or \
                        not result.descent.proved_optimal:
                    problems.append(f"weight {result.weight} (proved "
                                    f"{result.descent.proved_optimal}), "
                                    f"expected the proved optimum {expected}")
                trace = result.descent.proof_trace
                if trace is None or result.proof is None:
                    problems.append("no optimality certificate")
                else:
                    certificates[trace.sha256()] = trace
                    certificate_ops.setdefault(trace.sha256(), []).append(index)
            first = seen.setdefault(instance.name, signature(result))
            if signature(result) != first:
                problems.append("result differs from an earlier pass "
                                "(determinism self-check)")
            if problems:
                failed_ops.add(index)
            self.failures.extend(f"{instance.name}: {problem}"
                                 for problem in problems)
        check_times = []
        for sha, trace in certificates.items():
            started = time.perf_counter()
            verdict = check_trace(trace)
            check_times.append(time.perf_counter() - started)
            if not verdict.ok:
                failed_ops.update(certificate_ops[sha])
                self.failures.append(f"certificate {sha[:12]} rejected by "
                                     f"check_trace: {verdict.reason}")
        self.failed = len(failed_ops)
        self.digest_rows = sorted((name, repr(row))
                                  for name, row in seen.items())
        return statistics.mean(check_times) if check_times else 0.0

    def quality(self) -> dict:
        results = [(instance, result) for instance, result, _ in self.ops]
        return {
            "weight_ratio": geometric_mean(
                result.weight / instance.bk_weight
                for instance, result in results),
            "routed_2q_ratio": geometric_mean(
                result.hardware.two_qubit_count / instance.bk_2q
                for instance, result in results if instance.device),
        }

    @property
    def attempted(self) -> int:
        return len(self.ops)


def layer_metrics(totals: dict, ops: int, op_wall: float, overhead: float,
                  device_ops: int, proved: int, check_s: float,
                  extra: dict | None = None) -> dict:
    """Per-layer metrics from summed span totals over ``ops`` compiles."""
    self_s = totals["self_s"]
    counts = totals["counts"]

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    solver_s = self_s.get("solver", 0.0)
    calls = counts.get("solver.calls", 0)
    layer_time = sum(seconds for name, seconds in self_s.items()
                     if name != "worker.job")
    metrics = {
        "encoder.self_s": per_op(self_s.get("encoder", 0.0)),
        "encoder.clauses": per_op(counts.get("encoder.clauses", 0)),
        "encoder.vars": per_op(counts.get("encoder.vars", 0)),
        "ladder.self_s": per_op(self_s.get("ladder", 0.0)),
        "ladder.clauses": per_op(counts.get("ladder.clauses", 0)),
        "preprocess.self_s": per_op(self_s.get("preprocess", 0.0)),
        "preprocess.clauses_out": per_op(
            counts.get("preprocess.clauses_out", 0)),
        "preprocess.vars_eliminated": per_op(
            counts.get("preprocess.vars_eliminated", 0)),
        "solver.self_s": per_op(solver_s),
        "solver.calls": per_op(calls),
        "solver.conflicts": per_op(counts.get("solver.conflicts", 0)),
        "solver.propagations": per_op(counts.get("solver.propagations", 0)),
        "solver.conflicts_per_s": (counts.get("solver.conflicts", 0) / solver_s
                                   if solver_s else 0.0),
        "solver.definitive_ratio": (counts.get("solver.definitive", 0) / calls
                                    if calls else 0.0),
        "descent.self_s": per_op(self_s.get("descent", 0.0)),
        "descent.rungs": per_op(counts.get("descent.rungs", 0)),
        "descent.repairs": per_op(counts.get("descent.repairs", 0)),
        "drat.self_s": per_op(self_s.get("drat", 0.0)),
        "drat.lines": per_op(counts.get("drat.lines", 0)),
        "drat.check_s": check_s,
        "annealing.self_s": per_op(self_s.get("annealing", 0.0)),
        "baselines.self_s": per_op(self_s.get("baselines", 0.0)),
        "hardware.self_s": per_op(self_s.get("hardware", 0.0)),
        "hardware.candidates": (counts.get("hardware.candidates", 0) / device_ops
                                if device_ops else 0.0),
        "hardware.swaps": (counts.get("hardware.swaps", 0) / device_ops
                           if device_ops else 0.0),
        "quality.proved_fraction": per_op(proved),
        "trace.overhead_share": overhead,
        "unattributed_share": ((op_wall - layer_time) / op_wall
                               if op_wall else 0.0),
    }
    metrics.update(extra or {})
    # A layer this workload never calls did no work: zero, not missing.
    for name in spec.names("per_layer"):
        metrics.setdefault(name, 0.0)
    return metrics

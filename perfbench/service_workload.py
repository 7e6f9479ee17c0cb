"""The ``service-mixed`` workload: a daemon process under two client threads.

The daemon (:mod:`perfbench.daemon`) runs one worker process over a
cache pre-warmed with proved N=3 results.  The *reads* thread cycles
through a cache-hit submission (a fingerprint not in the daemon's
registry), a duplicate submission of the same spec, and a full-result
poll.  The *misses* thread submits fresh N=3 proof compiles, each with a
distinct conflict cap, and waits on each through the daemon's event feed.
Both are closed loops.  Every answer is kept, then decoded and checked
against hand-written results after the measured window.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from perfbench import spec
from perfbench.calibration import calibrate, reference_seconds
from perfbench.compile_workloads import (geometric_mean, layer_metrics,
                                         typical_latency)
from perfbench.tracing import load_dumps, merge, subtract
from repro.core.config import METHOD_INDEPENDENT, FermihedralConfig
from repro.core.pipeline import FermihedralCompiler
from repro.core.verify import verify_encoding
from repro.encodings.bravyi_kitaev import bravyi_kitaev
from repro.hardware import HardwareCostModel, resolve_device
from repro.service.client import ServiceClient, ServiceError
from repro.store.batch import compile_job_key, job_from_spec
from repro.store.cache import CompilationCache
from repro.telemetry.metrics import parse_prometheus_text

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONFIG = FermihedralConfig()


def job_spec(device: str | None, max_conflicts: int) -> dict:
    return {"modes": spec.SERVICE_MODES, "method": METHOD_INDEPENDENT,
            "device": device,
            "config": {"max_conflicts": max_conflicts, "proof": True}}


def job_key(job: dict) -> str:
    parsed = job_from_spec(job, default_method=METHOD_INDEPENDENT,
                           base_config=DEFAULT_CONFIG, strict=True)
    return compile_job_key(parsed, DEFAULT_CONFIG)


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Daemon:
    """One daemon process: start, readiness, memory, stop."""

    def __init__(self, workdir: str, cache_dir: str, max_records: int,
                 trace_dir: str | None = None):
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--cache", cache_dir, "--max-records", str(max_records)]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=workdir)
        self.url: str | None = None

    def wait_ready(self) -> ServiceClient:
        """Block until the daemon answers ``/healthz``; polled tightly."""
        line = self.process.stdout.readline().strip()
        if not line.startswith("http://"):
            raise RuntimeError(f"daemon failed to start (said {line!r})")
        self.url = line
        client = ServiceClient(line, retries=0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                client.healthz()
                return client
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(spec.SERVICE_READY_POLL_S)

    def tree(self) -> list[int]:
        """The daemon's pid and its live descendants' (its worker)."""
        pids, pending = [], [self.process.pid]
        while pending:
            pid = pending.pop()
            pids.append(pid)
            try:
                with open(f"/proc/{pid}/task/{pid}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except FileNotFoundError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the daemon and its children."""
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except FileNotFoundError:
                continue
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the daemon and its worker, which would outlive it."""
        for pid in self.tree():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue

    def mark(self, trace_dir: str) -> dict[str, dict]:
        """Span totals so far (daemon and worker): a window's start."""
        daemon_file = os.path.join(trace_dir, "spans-daemon.json")
        if os.path.exists(daemon_file):
            os.unlink(daemon_file)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(daemon_file):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon wrote no span totals")
            time.sleep(spec.SERVICE_READY_POLL_S)
        return load_dumps(trace_dir)

    def stop(self) -> None:
        """Ask for a drained shutdown; kill only if that does not finish."""
        if self.process.poll() is None:
            try:
                if self.url is None:
                    raise ServiceError("daemon never became ready")
                ServiceClient(self.url, retries=0, timeout=5.0).shutdown()
            except ServiceError:
                self.kill()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
                self.process.wait()
        self.process.stdout.close()


def prewarm(cache_dir: str, hit_keys: int) -> dict:
    """Compile each device's N=3 proof job once and file the result under
    ``hit_keys`` fingerprints (distinct conflict caps, which never bind,
    so the result is exactly what each of those jobs computes).

    Returns ``{device: (pre-warm result, hit specs)}``.
    """
    cache = CompilationCache(cache_dir)
    prewarmed = {}
    for device in spec.SERVICE_DEVICES:
        specs = [job_spec(device, spec.SERVICE_HIT_CONFLICTS_BASE + index)
                 for index in range(hit_keys)]
        parsed = job_from_spec(specs[0], default_method=METHOD_INDEPENDENT,
                               base_config=DEFAULT_CONFIG, strict=True)
        compiler = FermihedralCompiler(spec.SERVICE_MODES, parsed.config,
                                       cache=cache, device=device)
        result = compiler.compile(method=METHOD_INDEPENDENT,
                                  cache_key=job_key(specs[0]))
        for job in specs[1:]:
            cache.put(job_key(job), result)
        prewarmed[device] = (result, specs)
    return prewarmed


def set_up(workdir: str, cache_dir: str, max_records: int, hit_keys: int,
           trace_dir: str | None = None):
    """Daemon up and cache pre-warmed: ``(daemon, client, prewarmed)``.

    The daemon boots while this process compiles the pre-warm results.
    """
    daemon = Daemon(workdir, cache_dir, max_records, trace_dir)
    try:
        prewarmed = prewarm(cache_dir, hit_keys)
        client = daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, prewarmed


def check(result, device, miss: bool) -> list[str]:
    """What is wrong with one service result, against the hand-written
    :data:`spec.SERVICE_EXPECTED`; empty when it is right."""
    expected = spec.SERVICE_EXPECTED[device]
    where = device or "no device"
    problems = []
    if result.weight != expected["weight"]:
        problems.append(f"weight {result.weight} on {where}, "
                        f"expected {expected['weight']}")
    routed = None if result.hardware is None \
        else result.hardware.two_qubit_count
    if routed != expected["2q"]:
        problems.append(f"{routed} routed two-qubit gates on {where}, "
                        f"expected {expected['2q']}")
    if miss and (not result.descent.proved_optimal or result.proof is None):
        problems.append(f"compile on {where} did not prove its optimum "
                        f"with a certificate")
    if not verify_encoding(result.encoding).valid:
        problems.append(f"encoding on {where} fails verify_encoding")
    return problems


def references() -> dict:
    """Bravyi-Kitaev weight and per-device routed two-qubit count."""
    reference = bravyi_kitaev(spec.SERVICE_MODES)
    bk_2q = {}
    for device in spec.SERVICE_DEVICES:
        if device is not None:
            model = HardwareCostModel(resolve_device(device))
            bk_2q[device] = model.cost_of_encoding(reference).two_qubit_count
    return {"weight": reference.total_majorana_weight, "2q": bk_2q}


class ServiceRun:
    """One run of ``service-mixed``."""

    def __init__(self, seed: int, seconds: float, smoke: bool, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.hit_keys = (spec.SMOKE_SERVICE_HIT_KEYS if smoke
                         else spec.SERVICE_HIT_KEYS)
        self.max_records = (spec.SMOKE_SERVICE_MAX_RECORDS if smoke
                            else spec.SERVICE_MAX_RECORDS)
        self.references = references()
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.digest_rows: list = []
        self._lock = threading.Lock()
        self._phase = 0

    # -- one measured phase ------------------------------------------------------

    def _attempt(self, ops: int) -> None:
        with self._lock:
            self.attempted += ops

    def _fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def _phase_dirs(self) -> tuple[str, str]:
        self._phase += 1
        cache_dir = os.path.join(self.workdir, f"cache-{self._phase}")
        trace_dir = os.path.join(self.workdir, f"spans-{self._phase}")
        os.makedirs(trace_dir, exist_ok=True)
        return cache_dir, trace_dir

    def phase(self, seconds: float, traced: bool) -> "_PhaseState":
        cache_dir, trace_dir = self._phase_dirs()
        daemon, client, prewarmed = set_up(
            self.workdir, cache_dir, self.max_records, self.hit_keys,
            trace_dir if traced else None)
        try:
            hits = [(device, job) for device, (_, specs) in prewarmed.items()
                    for job in specs]
            random.Random(self.seed).shuffle(hits)
            for device, (result, _) in prewarmed.items():
                for problem in check(result, device, miss=True):
                    self._fail(f"pre-warm: {problem}")
            state = _PhaseState(self, client, hits, traced)
            state.warm_up()
            before = daemon.mark(trace_dir) if traced else {}
            state.run(seconds)
            peak = daemon.peak_rss_mb()
            submit_s = None
            if traced:
                submit_s = _histogram_mean(client.metrics(),
                                           "repro_service_submit_seconds")
        finally:
            daemon.stop()
        state.peak_rss_mb = peak
        state.submit_s = submit_s
        state.check_answers()
        if traced:
            after = load_dumps(trace_dir)
            state.spans = {name: subtract(totals, before.get(name, {}))
                           for name, totals in after.items()}
        return state

    # -- metrics ------------------------------------------------------------------

    def measure(self) -> dict:
        state = self.phase(self.seconds, traced=False)
        self._finish(state)
        reference = state.miss_reference_s
        return {
            "compiles_per_s": len(reference) / sum(s for _, s in reference),
            "compile_s_p50": typical_latency(reference),
            "peak_rss_mb": state.peak_rss_mb,
            **self._quality(state),
            "_samples": {"compile_s_p50": len(reference)},
            "_wall": {"compiles_per_s": len(state.miss_s) / state.miss_wall,
                      "compile_s_p50": typical_latency(
                          zip(state.miss_s_devices, state.miss_s))},
        }

    def measure_traced(self) -> dict:
        half = self.seconds / 2.0
        plain = self.phase(half, traced=False)
        traced = self.phase(half, traced=True)
        self._finish(plain)
        self._finish(traced)
        spans = traced.spans
        worker = merge(totals for name, totals in spans.items()
                       if name != "daemon")
        everything = merge(spans.values())
        misses = len(traced.miss_s)
        submissions = len(traced.hit_s) + len(traced.dup_s) + misses
        requests = traced.requests
        self_s = everything["self_s"]
        calls = everything["calls"]
        counts = everything["counts"]
        job_wall = sum(worker["self_s"].values())
        run_wall = statistics.mean(traced.run_s)
        worker_jobs = worker["calls"].get("worker.job", 0)
        op_wall = (sum(traced.hit_s) + sum(traced.dup_s)
                   + sum(traced.poll_s) + sum(traced.miss_s))
        layer_time = sum(self_s.values())
        extra = {
            "cache.get_s": _ratio(self_s.get("cache.get", 0.0),
                                  calls.get("cache.get", 0)),
            "cache.put_s": _ratio(self_s.get("cache.put", 0.0),
                                  calls.get("cache.put", 0)),
            "cache.hit_ratio": _ratio(counts.get("cache.hits", 0),
                                      calls.get("cache.get", 0)),
            "cache.bytes_written": _ratio(counts.get("cache.bytes_written", 0),
                                          worker_jobs),
            "fingerprint.self_s": _ratio(self_s.get("fingerprint", 0.0),
                                         submissions),
            "serialization.self_s": _ratio(self_s.get("serialization", 0.0),
                                           requests),
            "serialization.bytes": _ratio(counts.get("http.bytes", 0),
                                          calls.get("http", 0)),
            "service.submit_s": traced.submit_s or 0.0,
            "service.queue_wait_s": (statistics.median(traced.queue_s)
                                     if traced.queue_s else 0.0),
            "executor.dispatch_s": run_wall - _ratio(job_wall, worker_jobs),
            "service.trace_bytes_per_job": (statistics.mean(traced.trace_bytes)
                                            if traced.trace_bytes else 0.0),
            "client.requests_per_s": requests / traced.wall,
            "client.hit_s_p50": statistics.median(traced.hit_s),
            "client.hit_s_p99": percentile(traced.hit_s, 0.99),
            "client.dup_s_p50": statistics.median(traced.dup_s),
            "client.poll_s_p50": statistics.median(traced.poll_s),
            "unattributed_share": _ratio(op_wall - layer_time, op_wall),
        }
        return layer_metrics(
            worker, ops=worker_jobs, op_wall=job_wall,
            overhead=(statistics.median(traced.miss_s)
                      / statistics.median(plain.miss_s) - 1.0),
            device_ops=sum(1 for device in traced.miss_devices if device),
            proved=sum(traced.miss_proved), check_s=0.0, extra=extra)

    def _finish(self, state: "_PhaseState") -> None:
        """Determinism: every miss of one device did identical work."""
        by_device: dict = {}
        for device, row in state.signatures:
            by_device.setdefault(device, set()).add(row)
        for device, rows in by_device.items():
            if len(rows) != 1:
                self._fail(f"misses on {device or 'no device'} differ: "
                           f"{sorted(rows)}")
        self.digest_rows.extend(sorted(
            (str(device), repr(sorted(rows)))
            for device, rows in by_device.items()))
        if not state.miss_s or not state.hit_s:
            self._fail("a client thread completed no operation")

    def _quality(self, state: "_PhaseState") -> dict:
        reference = self.references
        return {
            "weight_ratio": geometric_mean(
                weight / reference["weight"] for weight in state.miss_weights),
            "routed_2q_ratio": geometric_mean(
                count / reference["2q"][device]
                for device, count in state.miss_2q),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _histogram_mean(text: str, family: str) -> float:
    samples = parse_prometheus_text(text)[family]["samples"]
    total = sum(value for _, value in samples[f"{family}_sum"])
    count = sum(value for _, value in samples[f"{family}_count"])
    return _ratio(total, count)


class _PhaseState:
    """Both client threads of one phase and what they observed."""

    def __init__(self, run: ServiceRun, client: ServiceClient, hits: list,
                 traced: bool):
        self.run_ = run
        self.client = client
        self.hits = hits
        self.traced = traced
        self.miss_cap = (spec.SERVICE_MISS_CONFLICTS_BASE
                         + (run.seed % 1000) * 1000)
        self.hit_s: list[float] = []
        self.dup_s: list[float] = []
        self.poll_s: list[float] = []
        self.miss_s: list[float] = []
        self.miss_s_devices: list = []
        #: ``(device, miss latency in reference-host seconds)``, see
        #: :mod:`perfbench.calibration`.
        self.miss_reference_s: list[tuple] = []
        self.miss_wall = self.wall = 0.0
        self.requests = 0
        self.signatures: list = []
        self.miss_weights: list[int] = []
        self.miss_2q: list = []
        self.miss_devices: list = []
        self.miss_proved: list[bool] = []
        self.queue_s: list[float] = []
        self.run_s: list[float] = []
        self.trace_bytes: list[int] = []
        #: Filled in by :meth:`ServiceRun.phase` after the daemon stops.
        self.peak_rss_mb = 0.0
        self.submit_s: float | None = None
        self.spans: dict[str, dict] = {}
        self._next_hit = 0
        self._next_miss = 0
        #: The miss thread's cursor into the daemon's event feed.
        self._cursor = 0
        #: ``(device, full record, is a miss, is measured)`` of every
        #: answer, checked after the measured window.
        self.answers: list[tuple] = []

    # -- the two op kinds ----------------------------------------------------------

    def read_cycle(self, record: bool) -> int:
        """Hit, duplicate, full-result poll; returns requests made."""
        device, job = self.hits[self._next_hit % len(self.hits)]
        self._next_hit += 1
        client = self.client
        started = time.perf_counter()
        first = client.submit(job)
        hit = time.perf_counter() - started
        started = time.perf_counter()
        second = client.submit(job)
        dup = time.perf_counter() - started
        started = time.perf_counter()
        full = client.job(first["id"])
        poll = time.perf_counter() - started
        if record:
            self.hit_s.append(hit)
            self.dup_s.append(dup)
            self.poll_s.append(poll)
        run = self.run_
        if first["status"] != "done" or first["deduplicated"]:
            run._fail(f"hit answered {first['status']} "
                      f"(deduplicated {first['deduplicated']})")
        if not second["deduplicated"] or second["id"] != first["id"]:
            run._fail("duplicate submission was not deduplicated")
        self.answers.append((device, full, False, record))
        return 3

    def miss(self, record: bool) -> int:
        """One fresh compile, submit to done; returns requests made."""
        device = spec.SERVICE_DEVICES[
            self._next_miss % len(spec.SERVICE_DEVICES)]
        job = job_spec(device, self.miss_cap + self._next_miss)
        self._next_miss += 1
        client = self.client
        requests = 1
        calibration = calibrate()
        started = time.perf_counter()
        submitted = client.submit(job)
        job_id = submitted["id"]
        status = submitted["status"]
        deadline = started + 120.0
        while status not in ("done", "failed"):
            if time.perf_counter() > deadline:
                raise ServiceError(f"miss {job_id[:12]} never finished")
            status = self.wait_event(job_id) or status
            requests += 1
        elapsed = time.perf_counter() - started
        calibration = (calibration + calibrate()) / 2
        full = client.job(job_id)
        run = self.run_
        if submitted["deduplicated"] or status != "done":
            run._fail(f"miss {job_id[:12]} ended {status}")
            return requests + 1
        if record:
            self.miss_s.append(elapsed)
            self.miss_s_devices.append(device)
            self.miss_reference_s.append(
                (device, reference_seconds(elapsed, calibration)))
            self.queue_s.append(full["started_at"] - full["submitted_at"])
            self.run_s.append(full["finished_at"] - full["started_at"])
            if self.traced:
                # A busy registry may already have evicted the record and
                # its trace; that loses a sample, not a check.
                try:
                    trace = client.trace(job_id)
                    self.trace_bytes.append(len(json.dumps(trace)))
                except ServiceError:
                    pass
        self.answers.append((device, full, True, record))
        return requests + 1

    def wait_event(self, job_id: str) -> str | None:
        """One long-poll of the event feed; the job's terminal state if
        the batch holds it.  The daemon emits that event after the record
        is final, so the next ``GET /jobs/<id>`` sees the finished job."""
        batch = self.client.events(since=self._cursor,
                                   timeout=spec.SERVICE_EVENT_WAIT_S)
        self._cursor = batch["next"]
        for event in batch["events"]:
            if event["kind"] == "job" and event.get("job") == job_id \
                    and event.get("state") in ("done", "failed"):
                return event["state"]
        return None

    def check_answers(self) -> None:
        """Decode and check every answer; collect the misses' quality and
        determinism figures.  Runs after the measured window."""
        run = self.run_
        for device, record, miss, measured in self.answers:
            kind = "miss" if miss else "hit"
            try:
                result = self.client.result(record)
            except (ServiceError, ValueError, KeyError) as error:
                run._fail(f"{kind}: undecodable result: {error}")
                continue
            for problem in check(result, device, miss):
                run._fail(f"{kind}: {problem}")
            if not (miss and measured):
                continue
            descent = result.descent
            routed = None if result.hardware is None \
                else result.hardware.two_qubit_count
            self.signatures.append((device, (
                result.weight, descent.proved_optimal,
                tuple((step.bound, step.status, step.conflicts,
                       step.propagations) for step in descent.steps),
                routed)))
            self.miss_weights.append(result.weight)
            self.miss_devices.append(device)
            self.miss_proved.append(descent.proved_optimal)
            if routed is not None:
                self.miss_2q.append((device, routed))
        self.answers = []

    # -- driving ---------------------------------------------------------------------

    def warm_up(self) -> None:
        for _ in range(spec.SERVICE_WARMUP_MISSES if not self.run_.smoke
                       else 1):
            self.miss(record=False)
        for _ in range(len(self.hits)):
            self.read_cycle(record=False)

    def run(self, seconds: float) -> None:
        """Both threads, closed loops, until ``seconds`` have passed."""
        started = time.perf_counter()
        deadline = started + seconds
        counts = {"reads": 0, "misses": 0}
        walls = {}

        def loop(name: str, op, ops: int, think_s: float) -> None:
            while time.perf_counter() < deadline:
                self.run_._attempt(ops)
                try:
                    counts[name] += op(True)
                except (ServiceError, KeyError, TypeError) as error:
                    self.run_._fail(f"{name}: {type(error).__name__}: {error}")
                time.sleep(think_s)
            walls[name] = time.perf_counter() - started

        threads = [
            threading.Thread(target=loop, args=(
                "reads", self.read_cycle, 3, spec.SERVICE_READ_THINK_S)),
            threading.Thread(target=loop, args=("misses", self.miss, 1, 0.0)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.miss_wall = walls.get("misses", 0.0)
        self.wall = max(walls.values()) if walls else 0.0
        self.requests = counts["reads"] + counts["misses"]



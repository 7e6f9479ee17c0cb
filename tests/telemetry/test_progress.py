"""Progress streaming: bus semantics, snapshots, and live descent feeds.

The contracts pinned here are the ones the service endpoints lean on:
cursor resume (``dropped`` instead of silent gaps), per-job snapshot
folding, the heartbeat throttle, the ingest field-precedence rule that
keeps a worker's ``job`` tag intact across the relay, and — end to end —
that a real descent emits a monotonic heartbeat stream.
"""

import itertools
import threading

import pytest

from repro.core.config import FermihedralConfig, SolverBudget
from repro.core.pipeline import solve_hamiltonian_independent
from repro.parallel.executor import ProcessBatchExecutor
from repro.sat import CdclSolver, CnfFormula
from repro.sat import solver as solver_module
from repro.store import CompileJob
from repro.telemetry import (
    FileSnapshotSink,
    ProgressBus,
    RungEtaEstimator,
    Telemetry,
    read_snapshot,
)


def _pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    formula = CnfFormula()
    slot = {}
    for p in range(pigeons):
        for h in range(holes):
            slot[p, h] = formula.new_variable()
    for p in range(pigeons):
        formula.add_clause(slot[p, h] for h in range(holes))
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            formula.add_clause((-slot[p1, h], -slot[p2, h]))
    return formula


class TestCursorFeed:
    def test_seqs_increase_and_since_resumes(self):
        bus = ProgressBus()
        for index in range(5):
            bus.emit("tick", index=index)
        batch = bus.since(0)
        assert [e["seq"] for e in batch["events"]] == [1, 2, 3, 4, 5]
        assert batch["next"] == 5 and not batch["dropped"]
        assert bus.since(5)["events"] == []
        resumed = bus.since(3)
        assert [e["index"] for e in resumed["events"]] == [3, 4]

    def test_ring_eviction_reports_dropped(self):
        bus = ProgressBus(max_events=4)
        for index in range(10):
            bus.emit("tick", index=index)
        batch = bus.since(0)
        assert batch["dropped"]
        # The reader resumes from the oldest still buffered, no gap lies.
        assert [e["seq"] for e in batch["events"]] == [7, 8, 9, 10]
        assert batch["next"] == 10
        # A reader already past the evicted range is not warned.
        assert not bus.since(8)["dropped"]

    def test_limit_caps_the_batch(self):
        bus = ProgressBus()
        for index in range(8):
            bus.emit("tick")
        batch = bus.since(0, limit=3)
        assert len(batch["events"]) == 3
        assert batch["next"] == 3  # resume cursor points at the cap

    def test_wait_since_returns_on_new_event(self):
        bus = ProgressBus()
        release = threading.Timer(0.05, lambda: bus.emit("late"))
        release.start()
        try:
            batch = bus.wait_since(0, timeout=5.0)
        finally:
            release.cancel()
        assert [e["kind"] for e in batch["events"]] == ["late"]

    def test_wait_since_times_out_empty(self):
        batch = ProgressBus().wait_since(0, timeout=0.01)
        assert batch["events"] == [] and not batch["dropped"]


class TestContextAndHeartbeat:
    def test_context_fields_attach_and_nest(self):
        bus = ProgressBus()
        with bus.context(job="j1", bound=15):
            with bus.context(bound=14, engine="incremental"):
                bus.emit("rung")
            bus.emit("outer")
        event, outer = bus.since(0)["events"]
        assert (event["job"], event["bound"], event["engine"]) == \
            ("j1", 14, "incremental")
        assert outer["bound"] == 15 and "engine" not in outer

    def test_explicit_fields_beat_context(self):
        bus = ProgressBus()
        with bus.context(engine="incremental"):
            bus.emit("rung", engine="portfolio")
        assert bus.since(0)["events"][0]["engine"] == "portfolio"

    def test_heartbeat_throttles_per_thread(self):
        bus = ProgressBus(heartbeat_interval_s=60.0)
        assert bus.heartbeat(conflicts=1) is not None  # first always emits
        assert bus.heartbeat(conflicts=2) is None      # inside the window
        assert len(bus.since(0)["events"]) == 1

    def test_heartbeat_derives_eta_from_expected_conflicts(self):
        bus = ProgressBus(heartbeat_interval_s=0.0)
        with bus.context(expected_conflicts=1000):
            event = bus.heartbeat(conflicts=400, conflicts_per_s=100.0)
        assert event["eta_s"] == pytest.approx(6.0)
        assert "expected_conflicts" not in event  # estimate, not payload

    def test_heartbeat_without_rate_has_no_eta(self):
        bus = ProgressBus(heartbeat_interval_s=0.0)
        with bus.context(expected_conflicts=1000):
            event = bus.heartbeat(conflicts=400)
        assert "eta_s" not in event


class TestSnapshotsAndSinks:
    def test_job_events_fold_into_snapshots(self):
        bus = ProgressBus()
        bus.emit("job", job="a", state="running")
        bus.emit("heartbeat", job="a", conflicts=10)
        bus.emit("heartbeat", job="a", conflicts=25)
        snapshot = bus.snapshot("a")
        assert snapshot["conflicts"] == 25
        assert snapshot["state"] == "running"  # older fields persist
        assert snapshot["last_kind"] == "heartbeat"
        bus.forget("a")
        assert bus.snapshot("a") is None

    def test_snapshot_registry_is_bounded(self):
        bus = ProgressBus(max_jobs=2)
        for job in ("a", "b", "c"):
            bus.emit("job", job=job)
        assert bus.snapshot("a") is None  # oldest evicted
        assert set(bus.snapshots()) == {"b", "c"}

    def test_sinks_see_events_and_failures_are_swallowed(self):
        bus = ProgressBus()
        seen = []

        def broken(event):
            raise RuntimeError("sink bug")

        bus.add_sink(broken)
        bus.add_sink(seen.append)
        bus.emit("tick", index=1)
        bus.remove_sink(seen.append)
        bus.emit("tick", index=2)
        assert [e["index"] for e in seen] == [1]


class TestRelay:
    def test_drain_then_ingest_resequences_in_order(self):
        worker, parent = ProgressBus(), ProgressBus()
        parent.emit("local")
        with worker.context(job="k1"):
            worker.emit("descent", modes=4)
            worker.emit("rung", bound=15)
        payload = worker.drain()
        assert worker.since(0)["events"] == []  # drained exactly once
        parent.ingest(payload)
        kinds = [e["kind"] for e in parent.since(0)["events"]]
        assert kinds == ["local", "descent", "rung"]
        assert [e["seq"] for e in parent.since(0)["events"]] == [1, 2, 3]

    def test_event_fields_beat_ingest_extra(self):
        # The executor tags relayed events with the display label, but a
        # worker's own job key (the registry key) must survive.
        worker, parent = ProgressBus(), ProgressBus()
        with worker.context(job="fingerprint-key"):
            worker.emit("rung", bound=12)
        parent.ingest(worker.drain(), extra={"job": "display", "round": 3})
        event = parent.since(0)["events"][0]
        assert event["job"] == "fingerprint-key"
        assert event["round"] == 3  # parent-only knowledge still lands
        assert parent.snapshot("fingerprint-key")["bound"] == 12


class TestFileSnapshotSink:
    def test_snapshot_file_roundtrip(self, tmp_path):
        path = tmp_path / "job.json"
        sink = FileSnapshotSink(path, min_interval_s=0.0)
        sink({"seq": 1, "ts": 1.0, "kind": "descent", "modes": 4})
        sink({"seq": 2, "ts": 2.0, "kind": "heartbeat", "conflicts": 10})
        data = read_snapshot(path)
        assert data["modes"] == 4 and data["conflicts"] == 10
        assert data["last_kind"] == "heartbeat"

    def test_heartbeats_throttle_but_other_kinds_flush(self, tmp_path):
        path = tmp_path / "job.json"
        sink = FileSnapshotSink(path, min_interval_s=60.0)
        sink({"kind": "heartbeat", "conflicts": 1})
        sink({"kind": "heartbeat", "conflicts": 2})
        assert read_snapshot(path)["conflicts"] == 1  # second throttled
        sink({"kind": "rung", "conflicts": 3})        # always flushes
        assert read_snapshot(path)["conflicts"] == 3

    def test_read_snapshot_tolerates_absence_and_junk(self, tmp_path):
        assert read_snapshot(tmp_path / "missing.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"half":')
        assert read_snapshot(torn) is None
        not_dict = tmp_path / "list.json"
        not_dict.write_text("[1, 2]")
        assert read_snapshot(not_dict) is None


class TestRungEtaEstimator:
    def test_no_estimate_until_first_rung(self):
        eta = RungEtaEstimator()
        assert eta.expected_conflicts() is None
        eta.observe(100)
        assert eta.expected_conflicts() == 100.0

    def test_ema_tracks_recent_rungs(self):
        eta = RungEtaEstimator(smoothing=0.5)
        eta.observe(100)
        eta.observe(200)
        assert eta.expected_conflicts() == pytest.approx(150.0)

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValueError):
            RungEtaEstimator(smoothing=0.0)


class TestSolverHeartbeats:
    def test_restart_boundaries_heartbeat_with_rate(self, monkeypatch):
        telemetry = Telemetry(progress=ProgressBus(heartbeat_interval_s=0.0))
        # A small restart base guarantees the search crosses several
        # restart boundaries — the only hot-loop touch point — before
        # the instance closes.
        monkeypatch.setattr(solver_module, "_RESTART_BASE", 8)
        solver = CdclSolver(_pigeonhole(5, 4), telemetry=telemetry)
        result = solver.solve()
        assert result.is_unsat
        assert result.stats.restarts > 0
        beats = [e for e in telemetry.progress.since(0, limit=5000)["events"]
                 if e["kind"] == "heartbeat"]
        assert beats, "an UNSAT instance with restarts must heartbeat"
        conflicts = [e["conflicts"] for e in beats]
        assert conflicts == sorted(conflicts)  # monotone within one solve
        assert all(e["conflicts_per_s"] >= 0 for e in beats)
        assert all(e["elapsed_s"] >= 0 for e in beats)


class TestDescentProgress:
    def test_descent_heartbeats_are_monotonic(self):
        telemetry = Telemetry(progress=ProgressBus(heartbeat_interval_s=0.0))
        config = FermihedralConfig(budget=SolverBudget(time_budget_s=60.0))
        result = solve_hamiltonian_independent(
            3, config=config, telemetry=telemetry)
        assert result.weight == 11

        events = telemetry.progress.since(0, limit=5000)["events"]
        kinds = {e["kind"] for e in events}
        assert "descent" in kinds and "rung" in kinds

        # The cursor feed is strictly monotonic.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(seqs) == len(set(seqs))

        descent = next(e for e in events if e["kind"] == "descent")
        assert descent["modes"] == 3

        rungs = [e for e in events if e["kind"] == "rung"]
        assert all("bound" in e and "status" in e for e in rungs)
        # The ladder only ever tightens: bounds are strictly decreasing.
        bounds = [e["bound"] for e in rungs]
        assert bounds == sorted(bounds, reverse=True)

        for beat in (e for e in events if e["kind"] == "heartbeat"):
            if beat.get("bound") is not None:
                assert beat["bound"] >= min(bounds)
            assert beat["conflicts"] >= 0
            assert beat["elapsed_s"] >= 0


class TestExecutorProgressRelay:
    def test_children_relay_progress_exactly_once(self, tmp_path):
        telemetry = Telemetry()
        executor = ProcessBatchExecutor(
            jobs=2, telemetry=telemetry, progress_dir=str(tmp_path))
        work = [
            ("key-a", CompileJob(method="independent", num_modes=2, label="a")),
            ("key-b", CompileJob(method="independent", num_modes=3, label="b")),
        ]
        outcomes = executor.run(work)
        assert {o.status for o in outcomes.values()} == {"compiled"}

        events = telemetry.progress.since(0, limit=5000)["events"]
        descents = [e for e in events if e["kind"] == "descent"]
        assert len(descents) == 2  # one per job, never duplicated

        # Worker-side job keys survive the relay (ingest precedence) and
        # fold into per-job snapshots in the parent.
        for key in ("key-a", "key-b"):
            snapshot = telemetry.progress.snapshot(key)
            assert snapshot is not None
            assert snapshot["job"] == key

        # The live snapshot files are cleaned up once the jobs resolve.
        assert list(tmp_path.glob("*.json")) == []

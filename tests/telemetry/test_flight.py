"""Flight recorder: bounded breadcrumbs, dump assembly, chaos drills.

The recorder is the forensics half of the observability story: it rides
along with a job (as an explicit breadcrumb log and as a progress-bus
sink), and when the job dies its :meth:`dump` freezes everything a
post-mortem needs — last events, spans still open, a metrics snapshot,
and the traceback.  A label-scoped ``REPRO_CHAOS`` rule on ``job.run``
lets the whole failure path be drilled on demand.
"""

import pytest

from repro.core.config import FermihedralConfig
import repro.store.batch as batch_module
from repro.store import CompileJob
from repro.store.batch import run_compile_job
from repro.telemetry import FlightRecorder, ProgressBus, Telemetry
from repro.telemetry.flight import DEFAULT_MAX_EVENTS


class TestRecorder:
    def test_records_breadcrumbs_in_order(self):
        recorder = FlightRecorder()
        recorder.record("info", "job started", job="k1")
        recorder.record("error", "job failed", error="boom")
        events = recorder.events()
        assert [e["message"] for e in events] == ["job started", "job failed"]
        assert events[0]["job"] == "k1"
        assert events[1]["level"] == "error"

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(max_events=3)
        for index in range(10):
            recorder.record("info", f"crumb {index}")
        messages = [e["message"] for e in recorder.events()]
        assert messages == ["crumb 7", "crumb 8", "crumb 9"]

    def test_default_bound_is_modest(self):
        # The recorder lives inside every job; its memory must be flat.
        assert DEFAULT_MAX_EVENTS <= 1024

    def test_watch_captures_bus_events(self):
        bus = ProgressBus()
        recorder = FlightRecorder()
        bus.add_sink(recorder.watch)
        bus.emit("rung", bound=15, conflicts=120)
        events = recorder.events()
        assert events and events[0]["bound"] == 15
        assert events[0]["level"] == "progress"


class TestDump:
    def test_dump_carries_traceback_and_metrics(self):
        telemetry = Telemetry()
        telemetry.counter("repro_test_total", "test counter").inc()
        recorder = FlightRecorder()
        recorder.record("info", "before the fall")
        try:
            raise RuntimeError("synthetic failure")
        except RuntimeError as error:
            dump = recorder.dump(telemetry, error=error)
        assert dump["captured_at"] > 0
        assert "RuntimeError: synthetic failure" in dump["error"]
        assert "Traceback" in dump["error"]
        assert [e["message"] for e in dump["events"]] == ["before the fall"]
        assert "repro_test_total" in dump["metrics"]
        assert isinstance(dump["open_spans"], list)

    def test_dump_includes_spans_still_open(self):
        telemetry = Telemetry()
        recorder = FlightRecorder()
        with telemetry.span("compile", job="k1"):
            dump = recorder.dump(telemetry)
        names = [span["name"] for span in dump["open_spans"]]
        assert "compile" in names

    def test_dump_without_telemetry_still_works(self):
        dump = FlightRecorder().dump(None, error="plain text reason")
        assert dump["error"] == "plain text reason"
        assert dump["metrics"] is None


class TestChaosInjection:
    def test_matching_label_fails_with_forensics(self, monkeypatch,
                                                 arm_chaos):
        arm_chaos("job.run@chaos=always")
        recorders = []

        class KeptRecorder(FlightRecorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorders.append(self)

        monkeypatch.setattr(batch_module, "FlightRecorder", KeptRecorder)
        telemetry = Telemetry()
        job = CompileJob(method="independent", num_modes=2,
                         label="chaos-drill", config=FermihedralConfig())
        outcome = run_compile_job(job, FermihedralConfig(), None, "key-1",
                                  telemetry=telemetry)
        assert outcome.status == "error"
        assert "chaos fault injected" in outcome.error
        dump = outcome.forensics
        assert dump is not None and not dump.get("synthesized")
        messages = [e["message"] for e in dump["events"]]
        assert messages[0] == "job started"
        assert messages[-1] == "job failed"
        assert "chaos fault injected" in dump["error"]
        # The per-job recorder detaches afterwards: bus events after the
        # job no longer reach it.
        (recorder,) = recorders
        before = recorder.events()
        telemetry.progress.emit("after-the-job")
        assert recorder.events() == before

    def test_non_matching_label_is_untouched(self, arm_chaos):
        arm_chaos("job.run@chaos=always")
        job = CompileJob(method="independent", num_modes=2, label="healthy")
        outcome = run_compile_job(job, FermihedralConfig(), None, "key-2",
                                  telemetry=Telemetry())
        assert outcome.status == "compiled"
        assert outcome.forensics is None

    def test_chaos_off_by_default(self, arm_chaos):
        arm_chaos("")
        job = CompileJob(method="independent", num_modes=2,
                         label="chaos-drill")
        outcome = run_compile_job(job, FermihedralConfig(), None, "key-3",
                                  telemetry=Telemetry())
        assert outcome.status == "compiled"

"""Telemetry and proof surfaces of the HTTP service.

``GET /metrics`` (Prometheus text), ``GET /debug/trace/<id>`` (relayed
span events), ``GET /jobs/<id>/proof`` plus client-side re-checking, and
the evicted-but-cached job lookup — all over a real socket with real
compiles, the way the acceptance criteria phrase them.
"""

import threading

import pytest

from repro.service import (
    CompilationService,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.store import CompilationCache


@pytest.fixture
def serve():
    """Factory: start a server around a service; cleans up on exit."""
    started = []

    def _serve(service: CompilationService) -> ServiceClient:
        service.start()
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
        thread.start()
        started.append((service, server, thread))
        return ServiceClient(server.url, timeout=10.0)

    yield _serve
    for service, server, thread in started:
        service.shutdown(drain=False)
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()


class TestMetricsEndpoint:
    def test_metrics_families_populate_after_one_compile(
        self, serve, fast_config, tmp_path
    ):
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)

        text = client.metrics()
        # Queue gauges are scrape-time collect hooks; cache and solver
        # counters arrive via the worker relay.
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_active_slots" in text
        assert 'repro_service_jobs{state="done"} 1' in text
        assert "repro_cache_requests_total" in text
        assert "repro_solver_conflicts_total" in text
        assert "repro_service_submit_seconds_count 1" in text

    def test_metrics_is_prometheus_text_not_json(self, serve, fast_config):
        client = serve(CompilationService(default_config=fast_config, jobs=1))
        text = client.metrics()
        assert text.startswith("#")


class TestDebugTraceEndpoint:
    def test_trace_holds_the_relayed_span_tree(
        self, serve, fast_config, tmp_path
    ):
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)

        payload = client.trace(record["id"])
        assert payload["id"] == record["id"]
        names = {event["name"] for event in payload["events"]}
        assert "compile" in names and "descent" in names
        # The stored trace is the worker's raw span tree: internal parent
        # links intact, exactly one compile root.
        roots = [event for event in payload["events"]
                 if event.get("parent_id") is None]
        assert [event["name"] for event in roots] == ["compile"]

    def test_trace_prefix_lookup_and_404(self, serve, fast_config, tmp_path):
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)
        assert client.trace(record["id"][:12])["id"] == record["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.trace("feedfacefeedface")
        assert excinfo.value.status == 404


class TestProofEndpoint:
    def test_proof_served_and_verified_client_side(
        self, serve, fast_config, tmp_path
    ):
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1,
        ))
        record = client.submit({
            "modes": 2, "method": "independent",
            "config": {"proof": True},
        })
        client.wait(record["id"], timeout=120.0)

        payload = client.proof(record["id"])
        assert payload["proof"]["sha256"]
        assert payload["trace"] is not None

        verdict = client.verify_proof(record["id"])
        assert verdict["verified"], verdict["reason"]
        assert verdict["checked_additions"] > 0

    def test_proofless_job_is_a_pointed_404(
        self, serve, fast_config, tmp_path
    ):
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)
        with pytest.raises(ServiceError) as excinfo:
            client.proof(record["id"])
        assert excinfo.value.status == 404
        assert "no proof" in str(excinfo.value)

    def test_unknown_job_proof_is_404(self, serve, fast_config):
        client = serve(CompilationService(default_config=fast_config, jobs=1))
        with pytest.raises(ServiceError) as excinfo:
            client.proof("feedfacefeedface")
        assert excinfo.value.status == 404


class TestEvictedJobLookup:
    def test_evicted_but_cached_id_answers_from_the_cache(
        self, serve, fast_config, tmp_path
    ):
        # max_records=1: finishing the second job evicts the first from
        # the registry, but its id is a cache key and must keep working.
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=1, max_records=1,
        ))
        first = client.submit({"modes": 2, "method": "independent"})
        client.wait(first["id"], timeout=120.0)
        second = client.submit({"modes": 3, "method": "independent"})
        client.wait(second["id"], timeout=120.0)

        evicted = client.job(first["id"])
        assert evicted["source"] == "cache"
        # The synthesized record spells the registry's wire form.
        assert set(evicted) == set(client.job(second["id"])) | {"source"}
        assert evicted["status"] == "done"
        assert evicted["outcome"] == "cache-hit"
        assert evicted["weight"] == 6
        result = client.result(evicted)
        assert result.weight == 6

    def test_evicted_lookup_without_cache_still_404s(
        self, serve, fast_config
    ):
        client = serve(CompilationService(
            default_config=fast_config, jobs=1,
        ))
        with pytest.raises(ServiceError) as excinfo:
            client.job("feedfacefeedface")
        assert excinfo.value.status == 404


class TestProgressEndpoint:
    def test_finished_job_serves_its_last_snapshot(self, serve, fast_config):
        client = serve(CompilationService(default_config=fast_config, jobs=1))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)

        payload = client.progress(record["id"])
        assert payload["id"] == record["id"]
        assert payload["status"] == "done"
        snapshot = payload["progress"]
        assert snapshot is not None
        assert snapshot["state"] == "done"
        assert snapshot["outcome"] == "compiled"
        # The lifecycle events folded in: the job was seen queued/running
        # before it finished, all under the same key.
        assert snapshot["job"] == record["id"]

    def test_progress_prefix_lookup_and_404(self, serve, fast_config):
        client = serve(CompilationService(default_config=fast_config, jobs=1))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)
        assert client.progress(record["id"][:12])["id"] == record["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.progress("feedfacefeedface")
        assert excinfo.value.status == 404


class TestEventsEndpoint:
    def test_cursor_resume_is_gapless(self, serve, fast_config):
        client = serve(CompilationService(default_config=fast_config, jobs=1))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)

        # Read the feed twice with a cursor handoff: the union must be
        # exactly the full feed, with no overlap and no gap.
        first = client.events(since=0, limit=3)
        rest = client.events(since=first["next"], limit=5000)
        seqs = ([e["seq"] for e in first["events"]]
                + [e["seq"] for e in rest["events"]])
        full = client.events(since=0, limit=5000)
        assert seqs == [e["seq"] for e in full["events"]]
        assert len(seqs) == len(set(seqs))
        kinds = {e["kind"] for e in full["events"]}
        assert "job" in kinds  # lifecycle transitions are on the feed

    def test_resume_across_ring_eviction_reports_dropped(
        self, serve, fast_config
    ):
        from repro.telemetry import ProgressBus, Telemetry

        telemetry = Telemetry(progress=ProgressBus(max_events=8))
        client = serve(CompilationService(
            default_config=fast_config, jobs=1, telemetry=telemetry,
        ))
        cursor = client.events(since=0)["next"]
        for index in range(20):  # overflow the 8-slot ring past the cursor
            telemetry.progress.emit("tick", index=index)

        batch = client.events(since=cursor)
        assert batch["dropped"]  # the reader is told, never lied to
        assert len(batch["events"]) == 8
        seqs = [e["seq"] for e in batch["events"]]
        assert seqs == sorted(seqs)
        assert batch["next"] == seqs[-1]
        # The handed-back cursor resumes cleanly.
        assert client.events(since=batch["next"])["events"] == []

    def test_long_poll_waits_for_the_first_event(self, serve, fast_config):
        import threading
        import time as _time

        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        client = serve(CompilationService(
            default_config=fast_config, jobs=1, telemetry=telemetry,
        ))
        cursor = client.events(since=0)["next"]
        threading.Timer(
            0.2, lambda: telemetry.progress.emit("late", index=1)
        ).start()
        started = _time.monotonic()
        batch = client.events(since=cursor, timeout=10.0)
        assert [e["kind"] for e in batch["events"]] == ["late"]
        assert _time.monotonic() - started < 9.0  # returned on the event


class TestForensicsEndpoint:
    def test_chaos_failure_yields_a_retrievable_dump(
        self, serve, fast_config, arm_chaos
    ):
        arm_chaos("job.run@chaos=always")
        client = serve(CompilationService(
            default_config=fast_config, jobs=1, use_processes=False,
        ))
        record = client.submit({
            "modes": 2, "method": "independent", "label": "chaos-drill",
        })
        with pytest.raises(ServiceError):
            client.wait(record["id"], timeout=120.0)

        payload = client.forensics(record["id"])
        assert payload["id"] == record["id"]
        dump = payload["forensics"]
        assert "chaos fault injected" in dump["error"]
        messages = [e["message"] for e in dump["events"]]
        assert "job started" in messages and "job failed" in messages
        assert dump["metrics"] is not None

    def test_healthy_job_has_no_forensics(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, jobs=1, use_processes=False,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=120.0)
        with pytest.raises(ServiceError) as excinfo:
            client.forensics(record["id"])
        assert excinfo.value.status == 404
        assert "failed jobs" in str(excinfo.value)

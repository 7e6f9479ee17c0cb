"""The HTTP layer over a real socket: protocol, lifecycle, error codes.

Each test runs a ThreadingHTTPServer on an ephemeral port and drives it
with the real :class:`ServiceClient` — the same path ``repro submit``
and production batch scripts use.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import FermihedralCompiler
from repro.encodings.serialization import result_to_dict
from repro.service import (
    CompilationService,
    JobFailedError,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.store import CompilationCache
from tests.service.helpers import compiled_outcome


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
        # retries=0: these tests assert the raw protocol (a 429 must
        # surface as a 429, not be absorbed by the client's retry loop).
        return ServiceClient(server.url, timeout=10.0, retries=0)

    yield _serve
    for service, server, thread in started:
        service.shutdown(drain=False)
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()


def _stub_runner(batch):
    return {key: compiled_outcome(key, job) for key, job in batch}


class TestEndpoints:
    def test_healthz_and_stats(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        health = client.healthz()
        assert health["ok"] and health["state"] == "serving"
        stats = client.stats()
        assert stats["counters"]["submitted"] == 0
        assert stats["cache"] == {"enabled": False}

    def test_unknown_endpoint_and_job_404(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.job("feedfacefeedface")
        assert excinfo.value.status == 404

    def test_malformed_specs_are_400(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        for spec in (
            {"modes": 2, "methd": "independent"},         # typoed field
            {"model": "nosuch:4"},                        # unknown model
            {},                                           # no target
            {"modes": 2, "method": "independent",
             "config": {"budget_sec": 1}},                # typoed config
            # Wrong-typed (but valid-JSON) fields must be 400s too, not
            # dropped connections:
            {"modes": 2, "method": "independent", "seed": []},
            {"modes": "many", "method": "independent"},
            {"model": 5},
            {"model": "h2", "device": 7},
            {"modes": 2, "method": ["independent"]},
            {"model": "h2", "label": 3},
            {"model": "h2", "config": {"budget_s": "abc"}},
            {"model": "h2", "config": ["not", "a", "dict"]},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400, spec

    def test_overflowing_budget_is_400(self, serve, fast_config):
        """JSON's ``1e400`` parses to infinity; converting it to a conflict
        count must be a 400 naming the field, not a dropped connection."""
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        body = (b'{"modes": 2, "method": "independent",'
                b' "config": {"max_conflicts": 1e400}}')
        request = urllib.request.Request(
            client.base_url + "/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "max_conflicts" in json.loads(excinfo.value.read())["error"]

    def test_retired_strategy_key_is_400(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"modes": 2, "method": "independent",
                           "config": {"strategy": "linear"}})
        assert excinfo.value.status == 400
        assert "strategy" in str(excinfo.value)

    def test_submit_poll_shutdown_cycle(self, serve, fast_config, tmp_path):
        """The acceptance-criteria cycle, over a real socket, with real
        compiles fanned across worker processes."""
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=2,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        assert record["status"] in ("queued", "running", "done")
        final = client.wait(record["id"], timeout=120.0)
        assert final["status"] == "done"
        assert final["outcome"] in ("compiled", "warm-start")
        assert final["weight"] == 6 and final["proved_optimal"]
        result = client.result(final)
        assert result.weight == 6

        # Duplicate submission over the wire: same id, no recompile.
        dup = client.submit({"modes": 2, "method": "independent"})
        assert dup["id"] == record["id"] and dup["deduplicated"]

        reply = client.shutdown()
        assert reply["ok"]

    def test_concurrent_duplicate_submissions_compile_once(
        self, serve, fast_config
    ):
        gate = threading.Event()
        compiled = []

        def runner(batch):
            assert gate.wait(30.0)
            compiled.extend(key for key, _ in batch)
            return _stub_runner(batch)

        client = serve(CompilationService(
            default_config=fast_config, runner=runner
        ))
        spec = {"modes": 3, "method": "independent"}
        records = []
        def submit():
            records.append(client.submit(spec))
        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gate.set()
        assert len({record["id"] for record in records}) == 1
        job_id = records[0]["id"]
        final = client.wait(job_id, timeout=30.0)
        assert final["submissions"] == 6
        assert compiled == [job_id]  # exactly one compilation

    def test_queue_full_is_429(self, serve, fast_config):
        gate = threading.Event()

        def runner(batch):
            assert gate.wait(30.0)
            return _stub_runner(batch)

        client = serve(CompilationService(
            default_config=fast_config, runner=runner, queue_limit=1
        ))
        # One gated job saturates the active bound (queued or running,
        # both count), so a distinct second job must bounce.
        client.submit({"modes": 2, "method": "independent"})
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"modes": 3, "method": "independent"})
        assert excinfo.value.status == 429
        gate.set()

    def test_draining_submissions_are_503_and_polls_still_work(
        self, serve, fast_config
    ):
        gate = threading.Event()

        def runner(batch):
            assert gate.wait(30.0)
            return _stub_runner(batch)

        client = serve(CompilationService(
            default_config=fast_config, runner=runner
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.shutdown()  # drain begins; the job is still gated
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"modes": 3, "method": "independent"})
        assert excinfo.value.status == 503
        # Polling and health keep answering for the whole drain window.
        assert client.job(record["id"], include_result=False)["status"] in (
            "queued", "running"
        )
        assert client.healthz()["state"] == "draining"
        gate.set()

    def test_failed_job_raises_on_wait(self, serve, fast_config):
        def runner(batch):
            return {
                key: compiled_outcome(key, job, status="error",
                                      error="BoomError: induced")
                for key, job in batch
            }

        client = serve(CompilationService(
            default_config=fast_config, runner=runner
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        with pytest.raises(JobFailedError) as excinfo:
            client.wait(record["id"], timeout=30.0)
        assert "BoomError" in str(excinfo.value)
        shown = client.job(record["id"])
        assert shown["status"] == "failed" and "BoomError" in shown["error"]

    def test_job_prefix_lookup(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        client.wait(record["id"], timeout=30.0)
        assert client.job(record["id"][:10])["id"] == record["id"]

    def test_ambiguous_prefix_is_409_on_every_job_endpoint(
        self, serve, fast_config
    ):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        ids = [client.submit({"modes": modes, "method": "independent"})["id"]
               for modes in range(1, 18)]
        for job_id in ids:
            client.wait(job_id, timeout=30.0)
        # 17 ids over 16 hex digits: some first digit is shared.
        prefix = next(p for p in "0123456789abcdef"
                      if sum(i.startswith(p) for i in ids) > 1)
        for path in (f"/jobs/{prefix}", f"/jobs/{prefix}/progress",
                     f"/jobs/{prefix}/forensics", f"/jobs/{prefix}/proof",
                     f"/debug/trace/{prefix}"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", path)
            assert excinfo.value.status == 409, path
            assert "ambiguous" in str(excinfo.value), path

    def test_jobs_listing(self, serve, fast_config):
        client = serve(CompilationService(
            default_config=fast_config, runner=_stub_runner
        ))
        a = client.submit({"modes": 2, "method": "independent"})
        b = client.submit({"modes": 3, "method": "independent"})
        client.wait(a["id"], timeout=30.0)
        client.wait(b["id"], timeout=30.0)
        listed = client.jobs()
        assert [job["id"] for job in listed] == [a["id"], b["id"]]
        assert all("result" not in job for job in listed)


class TestByteIdenticalResults:
    def test_cache_hit_over_http_equals_direct_compile(
        self, serve, fast_config, tmp_path
    ):
        """GET /jobs/<id> of a cache-hit job returns a result
        byte-identical to a direct in-process compile()."""
        cache_dir = tmp_path / "cache"
        direct = FermihedralCompiler(
            2, fast_config, cache=CompilationCache(cache_dir)
        ).compile(method="independent")

        client = serve(CompilationService(
            cache=CompilationCache(cache_dir), default_config=fast_config,
            use_processes=False,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        assert record["status"] == "done"  # synchronous cache hit
        served = client.job(record["id"])
        assert served["outcome"] == "cache-hit"
        assert json.dumps(served["result"], sort_keys=True) == \
            json.dumps(result_to_dict(direct), sort_keys=True)
        # And the decoded object round-trips to the same weight/proof.
        result = client.result(served)
        assert (result.weight, result.proved_optimal) == \
            (direct.weight, direct.proved_optimal)

    def test_compiled_job_equals_direct_compile(
        self, serve, fast_config, tmp_path
    ):
        """A job compiled *by the service* (worker process, serialized
        over the wire) matches the direct in-process result on every
        field but wall-clock timings, which no two runs can share."""

        def normalized(data):
            if isinstance(data, dict):
                return {
                    key: normalized(value) for key, value in data.items()
                    if not key.endswith("_s")
                }
            if isinstance(data, list):
                return [normalized(item) for item in data]
            return data

        direct = FermihedralCompiler(2, fast_config).compile(
            method="independent"
        )
        client = serve(CompilationService(
            cache=CompilationCache(tmp_path / "cache"),
            default_config=fast_config, jobs=2,
        ))
        record = client.submit({"modes": 2, "method": "independent"})
        final = client.wait(record["id"], timeout=120.0)
        assert json.dumps(normalized(final["result"]), sort_keys=True) == \
            json.dumps(normalized(result_to_dict(direct)), sort_keys=True)

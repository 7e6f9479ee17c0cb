"""The service CLI verbs (submit / jobs / shutdown) and daemon lifecycle."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import CompilationService, ServiceServer

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def live_server(fast_config, tmp_path):
    """An in-thread daemon; yields its URL."""
    from repro.store import CompilationCache

    service = CompilationService(
        cache=CompilationCache(tmp_path / "cache"),
        default_config=fast_config,
        use_processes=False,
    ).start()
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_until_stopped, daemon=True)
    thread.start()
    yield server.url
    service.shutdown(drain=False)
    server.shutdown()
    thread.join(timeout=10.0)
    server.server_close()


class TestSubmitCommand:
    def test_submit_and_wait(self, live_server, capsys):
        code = main([
            "submit", "--url", live_server, "--modes", "2", "--wait",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "job:" in out
        assert "weight:          6" in out
        assert "proved optimal:  True" in out

    def test_submit_without_wait_prints_id(self, live_server, capsys):
        code = main(["submit", "--url", live_server, "--modes", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status:" in out

    def test_submit_bad_spec_is_error(self, live_server, capsys):
        code = main(["submit", "--url", live_server, "--model", "nosuch:2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_submit_unreachable_service(self, capsys):
        code = main([
            "submit", "--url", "http://127.0.0.1:9", "--modes", "2",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err


class TestJobsCommands:
    def test_ls_and_show(self, live_server, capsys):
        assert main([
            "submit", "--url", live_server, "--modes", "2", "--wait",
        ]) == 0
        capsys.readouterr()

        assert main(["jobs", "ls", "--url", live_server]) == 0
        table = capsys.readouterr().out
        assert "2 modes" in table and "done" in table

        # show by unique prefix, via the id printed in the table
        job_id = table.splitlines()[2].split("|")[0].strip()
        assert main(["jobs", "show", job_id, "--url", live_server]) == 0
        shown = capsys.readouterr().out
        assert "majorana strings:" in shown

    def test_ls_empty(self, live_server, capsys):
        assert main(["jobs", "ls", "--url", live_server]) == 0
        assert "no jobs" in capsys.readouterr().out


class TestShutdownCommand:
    def test_shutdown_via_cli(self, live_server, capsys):
        assert main(["shutdown", "--url", live_server]) == 0
        assert "shutdown accepted" in capsys.readouterr().out


class TestServeProcess:
    """The real daemon as a subprocess: startup banner and SIGTERM drain."""

    def _wait_for_url(self, process) -> str:
        deadline = time.monotonic() + 30.0
        first = process.stdout.readline()
        assert first, "serve printed nothing"
        url = first.split()[-1]
        assert url.startswith("http://")
        assert time.monotonic() < deadline
        return url

    def test_sigterm_drains_gracefully(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(tmp_path / "cache"), "--budget-s", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            url = self._wait_for_url(process)
            from repro.service import ServiceClient

            client = ServiceClient(url, timeout=10.0)
            record = client.submit({"modes": 2, "method": "independent"})
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "draining" in stderr
        assert "service stopped" in stdout
        # The accepted job was finished, not dropped: its result is in
        # the cache a later service/CLI run would reuse.
        from repro.store import CompilationCache

        cache = CompilationCache(tmp_path / "cache")
        assert record["id"] in cache


class TestTopCommand:
    def test_top_once_renders_vitals(self, live_server, capsys):
        assert main([
            "submit", "--url", live_server, "--modes", "2", "--wait",
        ]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--url", live_server]) == 0
        frame = capsys.readouterr().out
        assert "repro service at" in frame
        assert "workers:" in frame and "done: 1" in frame
        assert "latency p50/p90/p99" in frame
        assert "submit" in frame
        assert "no active jobs" in frame  # the only job already finished

    def test_top_unreachable_service(self, capsys):
        code = main(["top", "--once", "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err


class TestWatchCommand:
    def test_watch_follows_to_done(self, live_server, capsys):
        assert main(["submit", "--url", live_server, "--modes", "2"]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["watch", job_id[:12], "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert "done" in out

    def test_watch_failed_job_exits_one(self, live_server, capsys,
                                        arm_chaos):
        arm_chaos("job.run@chaos=always")
        assert main([
            "submit", "--url", live_server, "--modes", "2",
            "--label", "chaos-drill",
        ]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["watch", job_id[:12], "--url", live_server]) == 1
        assert "failed" in capsys.readouterr().out

    def test_watch_unknown_job(self, live_server, capsys):
        code = main(["watch", "feedfacefeedface", "--url", live_server])
        assert code == 2
        assert "no such job" in capsys.readouterr().err


class TestForensicsCommand:
    def test_forensics_of_a_chaos_failure(self, live_server, capsys,
                                          arm_chaos):
        arm_chaos("job.run@chaos=always")
        assert main([
            "submit", "--url", live_server, "--modes", "2",
            "--label", "chaos-drill",
        ]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["watch", job_id, "--url", live_server]) == 1
        capsys.readouterr()

        assert main(["jobs", "forensics", job_id[:12],
                     "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert "chaos fault injected" in out
        assert "job started" in out and "job failed" in out

        assert main(["jobs", "forensics", job_id, "--json",
                     "--url", live_server]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["forensics"]["events"]

    def test_forensics_of_a_healthy_job_is_an_error(self, live_server,
                                                    capsys):
        assert main([
            "submit", "--url", live_server, "--modes", "2", "--wait",
        ]) == 0
        capsys.readouterr()
        assert main(["jobs", "ls", "--url", live_server]) == 0
        job_id = capsys.readouterr().out.splitlines()[2].split("|")[0].strip()
        code = main(["jobs", "forensics", job_id, "--url", live_server])
        assert code == 2
        assert "failed jobs" in capsys.readouterr().err


class TestBenchCommands:
    def _snapshot(self, json_dir, wall_s):
        import json as _json

        json_dir.mkdir(exist_ok=True)
        (json_dir / "BENCH_demo.json").write_text(_json.dumps({
            "name": "demo", "written_at": 1.0, "demo_wall_s": wall_s,
        }))

    def test_record_then_clean_compare(self, tmp_path, capsys):
        self._snapshot(tmp_path / "run", 10.0)
        ledger = tmp_path / "history.jsonl"
        assert main(["bench", "record", "--json-dir", str(tmp_path / "run"),
                     "--history", str(ledger), "--sha", "aaa111"]) == 0
        assert "recorded 1 benchmark(s)" in capsys.readouterr().out
        assert main(["bench", "compare", "--json-dir", str(tmp_path / "run"),
                     "--history", str(ledger), "--sha", "bbb222"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_fails_the_gate(self, tmp_path, capsys):
        self._snapshot(tmp_path / "run", 10.0)
        ledger = tmp_path / "history.jsonl"
        assert main(["bench", "record", "--json-dir", str(tmp_path / "run"),
                     "--history", str(ledger), "--sha", "aaa111"]) == 0
        self._snapshot(tmp_path / "run", 15.0)  # +50% wall time
        code = main(["bench", "compare", "--json-dir", str(tmp_path / "run"),
                     "--history", str(ledger), "--sha", "bbb222"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_record_empty_dir_is_an_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["bench", "record", "--json-dir", str(tmp_path / "empty"),
                     "--history", str(tmp_path / "h.jsonl")])
        assert code == 2
        assert "no BENCH_" in capsys.readouterr().err

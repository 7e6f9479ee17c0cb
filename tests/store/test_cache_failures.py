"""A broken cache directory must never cost a finished compilation.

The batch engine and the service daemon both rely on this isolation: a
worker whose cache directory is unwritable (or vanished mid-run) still
returns its result — the job is *not* an error, the failure is recorded
on the side.
"""

import pytest

from repro.core import FermihedralCompiler, FermihedralConfig, SolverBudget
from repro.store import BatchCompiler, CompilationCache, CompileJob, cache_counts
from repro.telemetry import Telemetry


@pytest.fixture
def config():
    return FermihedralConfig(budget=SolverBudget(time_budget_s=30.0))


def _unwritable_cache(tmp_path) -> CompilationCache:
    """A cache whose root can never be created: a path under a file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory was expected")
    return CompilationCache(blocker / "cache")


class TestCompilerStoreFailure:
    def test_result_survives_unwritable_cache(self, tmp_path, config):
        compiler = FermihedralCompiler(2, config, cache=_unwritable_cache(tmp_path))
        result = compiler.compile(method="independent")
        assert result.weight == 6
        assert compiler.last_cache_status == "store-failed"
        assert compiler.last_cache_error is not None

    def test_put_failure_mid_run(self, tmp_path, config, monkeypatch):
        """The cache directory vanishing between get and put."""
        cache = CompilationCache(tmp_path / "cache")

        def vanished(key, result, telemetry=None):
            raise FileNotFoundError("shard removed by a concurrent cleanup")

        monkeypatch.setattr(cache, "put", vanished)
        compiler = FermihedralCompiler(2, config, cache=cache)
        result = compiler.compile(method="independent")
        assert result.proved_optimal
        assert compiler.last_cache_status == "store-failed"
        assert "FileNotFoundError" in compiler.last_cache_error

    def test_healthy_cache_still_stores(self, tmp_path, config):
        cache = CompilationCache(tmp_path / "cache")
        telemetry = Telemetry()
        compiler = FermihedralCompiler(2, config, cache=cache,
                                       telemetry=telemetry)
        compiler.compile(method="independent")
        assert compiler.last_cache_status == "miss"
        assert compiler.last_cache_error is None
        assert cache_counts(telemetry)["stores"] == 1


class TestBatchStoreFailure:
    def _jobs(self):
        return [
            CompileJob(method="independent", num_modes=2, label="a"),
            CompileJob(method="independent", num_modes=3, label="b"),
        ]

    def test_serial_path_keeps_batch_alive(self, tmp_path, config):
        batch = BatchCompiler(
            cache=_unwritable_cache(tmp_path), default_config=config
        )
        report = batch.compile(self._jobs())
        assert report.ok  # no job is an error
        assert [o.status for o in report.outcomes] == ["compiled", "compiled"]
        assert all(o.result is not None for o in report.outcomes)
        assert all(o.cache_error for o in report.outcomes)

    def test_process_path_keeps_batch_alive(self, tmp_path, config):
        batch = BatchCompiler(
            cache=_unwritable_cache(tmp_path), default_config=config, jobs=2
        )
        report = batch.compile(self._jobs())
        assert report.ok
        assert [o.status for o in report.outcomes] == ["compiled", "compiled"]
        assert all(o.result is not None for o in report.outcomes)
        assert all(o.cache_error for o in report.outcomes)

"""Tests for the batch compiler: deduplication, caching, error isolation."""

import pytest

from repro.core import (
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    FermihedralConfig,
)
from repro.fermion import hubbard_chain
from repro.store import BatchCompiler, CompilationCache, CompileJob, cache_counts
from repro.store.batch import job_from_spec
from repro.telemetry import Telemetry


class TestCompileJob:
    def test_independent_needs_modes(self):
        with pytest.raises(ValueError):
            CompileJob(method=METHOD_INDEPENDENT)

    def test_independent_rejects_hamiltonian(self):
        with pytest.raises(ValueError):
            CompileJob(method=METHOD_INDEPENDENT, hamiltonian=hubbard_chain(2))

    def test_dependent_needs_hamiltonian(self):
        with pytest.raises(ValueError):
            CompileJob(method=METHOD_FULL_SAT, num_modes=4)

    def test_modes_contradiction_rejected(self):
        with pytest.raises(ValueError):
            CompileJob(
                method=METHOD_FULL_SAT, hamiltonian=hubbard_chain(2), num_modes=3
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            CompileJob(method="psychic", num_modes=2)

    @pytest.mark.parametrize("config", [
        {"max_conflicts": float("inf")},  # what JSON's 1e400 parses to
        {"max_conflicts": -5},
        {"budget_s": -1},
    ], ids=["infinite-conflicts", "negative-conflicts", "negative-budget"])
    def test_bad_numeric_budgets_rejected(self, config):
        spec = {"modes": 2, "method": METHOD_INDEPENDENT, "config": config}
        with pytest.raises(ValueError):
            job_from_spec(spec)

    def test_retired_strategy_key_rejected(self):
        spec = {"modes": 2, "method": METHOD_INDEPENDENT,
                "config": {"strategy": "linear"}}
        with pytest.raises(ValueError, match="strategy"):
            job_from_spec(spec, strict=True)

    def test_modes_and_display(self):
        job = CompileJob(method=METHOD_FULL_SAT, hamiltonian=hubbard_chain(2))
        assert job.modes == 4
        assert job.display == hubbard_chain(2).name
        assert CompileJob(num_modes=3).display == "3 modes"
        assert CompileJob(num_modes=3, label="trio").display == "trio"


class TestBatchCompiler:
    def test_duplicates_compile_once(self, tmp_path, fast_config):
        cache = CompilationCache(tmp_path)
        telemetry = Telemetry()
        compiler = BatchCompiler(cache=cache, default_config=fast_config,
                                 telemetry=telemetry)
        jobs = [
            CompileJob(num_modes=2),
            CompileJob(num_modes=2),
            CompileJob(num_modes=1),
        ]
        report = compiler.compile(jobs)
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == ["compiled", "deduplicated", "compiled"]
        # one store per unique fingerprint, none for the duplicate
        assert cache_counts(telemetry)["stores"] == 2
        assert report.outcomes[0].result is report.outcomes[1].result
        assert report.ok
        assert report.counts == {"compiled": 2, "deduplicated": 1}
        assert "3 jobs" in report.summary()

    def test_second_batch_hits_the_cache(self, tmp_path, fast_config):
        cache = CompilationCache(tmp_path)
        jobs = [CompileJob(num_modes=2)]
        BatchCompiler(cache=cache, default_config=fast_config).compile(jobs)
        report = BatchCompiler(cache=cache, default_config=fast_config).compile(jobs)
        assert [outcome.status for outcome in report.outcomes] == ["cache-hit"]

    def test_dedup_without_cache(self, fast_config):
        compiler = BatchCompiler(default_config=fast_config)
        report = compiler.compile([CompileJob(num_modes=1), CompileJob(num_modes=1)])
        assert [outcome.status for outcome in report.outcomes] == [
            "compiled",
            "deduplicated",
        ]

    def test_per_job_config_changes_the_fingerprint(self, fast_config):
        loose = FermihedralConfig(vacuum_preservation=False)
        compiler = BatchCompiler(default_config=fast_config)
        report = compiler.compile(
            [CompileJob(num_modes=1), CompileJob(num_modes=1, config=loose)]
        )
        assert [outcome.status for outcome in report.outcomes] == [
            "compiled",
            "compiled",
        ]

    def test_errors_are_isolated_and_shared_with_duplicates(
        self, fast_config, monkeypatch
    ):
        import repro.store.batch as batch_module

        real_compiler = batch_module.FermihedralCompiler

        class ExplodingCompiler(real_compiler):
            def compile(self, method="independent", **kwargs):
                if method == METHOD_ANNEALING:
                    raise RuntimeError("boom")
                return super().compile(method=method, **kwargs)

        monkeypatch.setattr(batch_module, "FermihedralCompiler", ExplodingCompiler)
        jobs = [
            CompileJob(
                method=METHOD_ANNEALING, hamiltonian=hubbard_chain(2), seed=1
            ),
            CompileJob(
                method=METHOD_ANNEALING, hamiltonian=hubbard_chain(2), seed=1
            ),
            CompileJob(num_modes=1),
        ]
        report = BatchCompiler(default_config=fast_config).compile(jobs)
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == ["error", "error", "compiled"]
        assert not report.ok
        assert "boom" in report.outcomes[0].error
        assert "boom" in report.outcomes[1].error

    def test_empty_batch(self, fast_config):
        report = BatchCompiler(default_config=fast_config).compile([])
        assert report.outcomes == []
        assert report.ok


class TestDeviceJobs:
    def _fast(self):
        from repro.core import SolverBudget

        return FermihedralConfig(budget=SolverBudget(time_budget_s=30.0))

    def test_different_devices_not_deduplicated(self):
        compiler = BatchCompiler(default_config=self._fast())
        report = compiler.compile([
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2),
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2,
                       device="grid-2x2"),
        ])
        assert report.ok
        assert [o.status for o in report.outcomes] == ["compiled", "compiled"]
        assert report.outcomes[0].result.device is None
        assert report.outcomes[1].result.device == "grid-2x2"
        assert report.outcomes[1].result.hardware is not None

    def test_same_device_deduplicated(self):
        compiler = BatchCompiler(default_config=self._fast())
        report = compiler.compile([
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2,
                       device="grid-2x2"),
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2,
                       device="grid-2x2", label="duplicate"),
        ])
        assert report.counts == {"compiled": 1, "deduplicated": 1}

    def test_bad_device_is_isolated_per_job(self):
        """A typo'd or too-small device fails its own job at fingerprint
        time without aborting the rest of the batch."""
        compiler = BatchCompiler(default_config=self._fast())
        report = compiler.compile([
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2,
                       device="gird-3x3"),
            CompileJob(method=METHOD_INDEPENDENT, num_modes=4,
                       device="linear-3"),
            CompileJob(method=METHOD_INDEPENDENT, num_modes=2),
        ])
        assert [o.status for o in report.outcomes] == [
            "error", "error", "compiled",
        ]
        assert "unknown device" in report.outcomes[0].error
        assert report.outcomes[2].result is not None
        assert not report.ok

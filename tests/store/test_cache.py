"""Tests for the persistent compilation cache: hit, miss, warm-start,
corrupted-entry handling, and garbage collection."""

import json

import pytest

from repro.core import (
    METHOD_INDEPENDENT,
    CompilationResult,
    FermihedralCompiler,
    FermihedralConfig,
)
from repro.core.descent import DescentResult
from repro.encodings import jordan_wigner
from repro.store import CompilationCache, cache_counts
from repro.telemetry import Telemetry


def _fake_unproved_result(num_modes: int = 2) -> CompilationResult:
    """A valid but suboptimal, unproved result (plain Jordan-Wigner)."""
    encoding = jordan_wigner(num_modes)
    descent = DescentResult(
        encoding=encoding,
        weight=encoding.total_majorana_weight,
        proved_optimal=False,
        steps=[],
    )
    return CompilationResult(
        encoding=encoding,
        method="full-sat/independent",
        weight=encoding.total_majorana_weight,
        proved_optimal=False,
        descent=descent,
    )


class TestGetPut:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = CompilationCache(tmp_path)
        telemetry = Telemetry()
        assert cache.get("0" * 64, telemetry=telemetry) is None
        assert cache_counts(telemetry)["misses"] == 1
        assert cache_counts(telemetry)["hits"] == 0

    def test_put_then_get_round_trips(self, tmp_path):
        cache = CompilationCache(tmp_path)
        result = _fake_unproved_result()
        key = "ab" + "0" * 62
        telemetry = Telemetry()
        path = cache.put(key, result, telemetry=telemetry)
        assert path.exists()
        assert path.parent.name == "ab"
        loaded = cache.get(key, telemetry=telemetry)
        assert loaded is not None
        assert loaded.weight == result.weight
        assert loaded.proved_optimal is False
        assert [s.label() for s in loaded.encoding.strings] == [
            s.label() for s in result.encoding.strings
        ]
        assert cache_counts(telemetry)["hits"] == 1
        assert cache_counts(telemetry)["stores"] == 1

    def test_contains_and_len(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = "cd" + "1" * 62
        assert key not in cache
        assert len(cache) == 0
        cache.put(key, _fake_unproved_result())
        assert key in cache
        assert len(cache) == 1


class TestCorruptedEntries:
    def test_garbage_json_is_a_counted_miss(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, _fake_unproved_result())
        cache.path_for(key).write_text("{not json at all")
        telemetry = Telemetry()
        assert cache.get(key, telemetry=telemetry) is None
        assert cache_counts(telemetry)["corrupted"] == 1
        assert cache_counts(telemetry)["misses"] == 1

    def test_key_mismatch_is_corrupted(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = "0a" + "3" * 62
        other = "0a" + "4" * 62
        cache.put(key, _fake_unproved_result())
        # copy the entry under a different key without rewriting its body
        cache.path_for(other).write_text(cache.path_for(key).read_text())
        telemetry = Telemetry()
        assert cache.get(other, telemetry=telemetry) is None
        assert cache_counts(telemetry)["corrupted"] == 1

    def test_wrong_entry_version_is_corrupted(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = "1b" + "5" * 62
        cache.put(key, _fake_unproved_result())
        data = json.loads(cache.path_for(key).read_text())
        data["entry_format_version"] = 99
        cache.path_for(key).write_text(json.dumps(data))
        telemetry = Telemetry()
        assert cache.get(key, telemetry=telemetry) is None
        assert cache_counts(telemetry)["corrupted"] == 1

    def test_entries_flags_corrupted(self, tmp_path):
        cache = CompilationCache(tmp_path)
        good = "2c" + "6" * 62
        bad = "2c" + "7" * 62
        cache.put(good, _fake_unproved_result())
        cache.path_for(bad).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(bad).write_text("garbage")
        infos = {info.key: info for info in cache.entries()}
        assert not infos[good].corrupted
        assert infos[bad].corrupted


class TestGc:
    def _populate(self, cache):
        proved = _fake_unproved_result()
        proved.proved_optimal = True
        cache.put("aa" + "0" * 62, proved)
        cache.put("bb" + "0" * 62, _fake_unproved_result())
        cache.path_for("cc" + "0" * 62).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("cc" + "0" * 62).write_text("junk")

    def test_gc_removes_corrupted_only_by_default(self, tmp_path):
        cache = CompilationCache(tmp_path)
        self._populate(cache)
        report = cache.gc()
        assert [info.key[:2] for info in report.removed] == ["cc"]
        assert report.kept == 2
        assert not cache.path_for("cc" + "0" * 62).exists()

    def test_gc_drop_unproved(self, tmp_path):
        cache = CompilationCache(tmp_path)
        self._populate(cache)
        report = cache.gc(drop_unproved=True)
        removed = {info.key[:2] for info in report.removed}
        assert removed == {"bb", "cc"}
        assert cache.path_for("aa" + "0" * 62).exists()

    def test_gc_drop_unproved_keeps_annealing_entries(self, tmp_path):
        """sat+annealing results are unproved by nature but serve as full
        cache hits — drop_unproved must not evict them."""
        cache = CompilationCache(tmp_path)
        annealed = _fake_unproved_result()
        annealed.method = "sat+annealing"
        cache.put("dd" + "0" * 62, annealed)
        cache.put("ee" + "0" * 62, _fake_unproved_result())
        report = cache.gc(drop_unproved=True)
        assert [info.key[:2] for info in report.removed] == ["ee"]
        assert cache.path_for("dd" + "0" * 62).exists()

    def test_gc_max_entries_keeps_newest(self, tmp_path):
        import os

        cache = CompilationCache(tmp_path)
        old = "aa" + "0" * 62
        new = "bb" + "0" * 62
        cache.put(old, _fake_unproved_result())
        cache.put(new, _fake_unproved_result())
        # rewrite created_at so ordering does not depend on clock resolution
        for key, created in ((old, 100.0), (new, 200.0)):
            data = json.loads(cache.path_for(key).read_text())
            data["created_at"] = created
            cache.path_for(key).write_text(json.dumps(data))
        report = cache.gc(max_entries=1)
        assert [info.key for info in report.removed] == [old]
        assert cache.path_for(new).exists()
        assert not cache.path_for(old).exists()
        assert os.path.isdir(cache.root)

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        cache = CompilationCache(tmp_path)
        self._populate(cache)
        report = cache.gc(drop_unproved=True, dry_run=True)
        assert len(report.removed) == 2
        assert len(list(cache._entry_paths())) == 3

    def test_gc_catches_deep_corruption_entries_misses(self, tmp_path):
        """Corruption buried in the result payload is invisible to the
        cheap entries() summary but must still be gc'd (and reasoned)."""
        cache = CompilationCache(tmp_path)
        key = "dd" + "8" * 62
        cache.put(key, _fake_unproved_result())
        data = json.loads(cache.path_for(key).read_text())
        data["result"]["result_format_version"] = 999
        cache.path_for(key).write_text(json.dumps(data))
        # shallow listing cannot see it...
        assert not [info for info in cache.entries() if info.corrupted]
        # ...but get() rejects it, and gc removes it
        telemetry = Telemetry()
        assert cache.get(key, telemetry=telemetry) is None
        assert cache_counts(telemetry)["corrupted"] == 1
        report = cache.gc()
        assert [info.key for info in report.removed] == [key]
        assert report.reasons[key] == "corrupted"
        assert not cache.path_for(key).exists()

    def test_gc_reasons_label_each_eviction(self, tmp_path):
        cache = CompilationCache(tmp_path)
        self._populate(cache)
        old = "dd" + "9" * 62
        cache.put(old, _fake_unproved_result())
        data = json.loads(cache.path_for(old).read_text())
        data["created_at"] = 1.0
        cache.path_for(old).write_text(json.dumps(data))
        report = cache.gc(drop_unproved=True, max_entries=0)
        reasons = {key[:2]: reason for key, reason in report.reasons.items()}
        assert reasons == {"cc": "corrupted", "bb": "unproved",
                           "dd": "unproved", "aa": "over-limit"}

    def test_gc_removes_stale_temp_files_only(self, tmp_path):
        import os

        cache = CompilationCache(tmp_path)
        cache.put("aa" + "0" * 62, _fake_unproved_result())
        shard = cache.root / "aa"
        stale = shard / ".deadbeef.123.tmp"
        fresh = shard / ".cafecafe.456.tmp"
        stale.write_text("{half-written")
        fresh.write_text("{half-written")
        os.utime(stale, (0, 0))  # ancient: a crashed writer's orphan
        report = cache.gc()
        assert report.temp_files_removed == 1
        assert not stale.exists()
        assert fresh.exists()  # could belong to a live writer

    def test_entries_skips_files_vanishing_mid_listing(self, tmp_path, monkeypatch):
        cache = CompilationCache(tmp_path)
        cache.put("aa" + "0" * 62, _fake_unproved_result())
        cache.put("bb" + "0" * 62, _fake_unproved_result())
        gone = cache.path_for("aa" + "0" * 62)

        real_paths = list(cache._entry_paths())
        gone.unlink()
        monkeypatch.setattr(cache, "_entry_paths", lambda: iter(real_paths))
        infos = cache.entries()
        assert [info.key[:2] for info in infos] == ["bb"]


class TestCompilerIntegration:
    def test_second_compile_is_a_hit_with_zero_sat_calls(
        self, tmp_path, fast_config, monkeypatch
    ):
        """The acceptance criterion: a cache-enabled compiler performs no
        SAT work when re-compiling an already-proved job."""
        cache = CompilationCache(tmp_path)
        first = FermihedralCompiler(2, fast_config, cache=cache)
        result1 = first.hamiltonian_independent()
        assert first.last_cache_status == "miss"
        assert result1.proved_optimal

        def _no_sat_allowed(*args, **kwargs):
            raise AssertionError("descend() ran on what should be a cache hit")

        monkeypatch.setattr("repro.core.pipeline.descend", _no_sat_allowed)
        telemetry = Telemetry()
        second = FermihedralCompiler(2, fast_config, cache=cache,
                                     telemetry=telemetry)
        result2 = second.hamiltonian_independent()
        assert second.last_cache_status == "hit"
        assert cache_counts(telemetry)["hits"] == 1
        # the cached descent trace is preserved verbatim
        assert result2.descent.sat_calls == result1.descent.sat_calls
        assert [step.bound for step in result2.descent.steps] == [
            step.bound for step in result1.descent.steps
        ]
        assert result2.weight == result1.weight
        assert [s.label() for s in result2.encoding.strings] == [
            s.label() for s in result1.encoding.strings
        ]

    def test_unproved_entry_warm_starts_the_descent(
        self, tmp_path, fast_config, monkeypatch
    ):
        """A cached non-optimal result must seed descend()'s starting bound
        (its encoding becomes the baseline) instead of being returned."""
        cache = CompilationCache(tmp_path)
        telemetry = Telemetry()
        compiler = FermihedralCompiler(2, fast_config, cache=cache,
                                       telemetry=telemetry)
        key = cache.key_for(
            num_modes=2, config=fast_config, method=METHOD_INDEPENDENT
        )
        cache.put(key, _fake_unproved_result(2))

        seen_baselines = []
        import repro.core.pipeline as pipeline_module

        real_descend = pipeline_module.descend

        def _spy(num_modes, config=None, hamiltonian=None, baseline=None,
                 telemetry=None, checkpoint=None):
            seen_baselines.append(baseline)
            return real_descend(
                num_modes, config=config, hamiltonian=hamiltonian, baseline=baseline
            )

        monkeypatch.setattr("repro.core.pipeline.descend", _spy)
        result = compiler.hamiltonian_independent()
        assert compiler.last_cache_status == "warm-start"
        assert cache_counts(telemetry)["warm_starts"] == 1
        assert len(seen_baselines) == 1
        jw_labels = [s.label() for s in jordan_wigner(2).strings]
        assert [s.label() for s in seen_baselines[0].strings] == jw_labels
        # the improved result replaced the unproved entry
        assert result.proved_optimal
        stored = cache.get(key)
        assert stored.proved_optimal
        assert stored.weight == result.weight

    def test_corrupted_entry_recompiles_and_heals(self, tmp_path, fast_config):
        cache = CompilationCache(tmp_path)
        compiler = FermihedralCompiler(2, fast_config, cache=cache)
        result1 = compiler.hamiltonian_independent()
        key = cache.key_for(
            num_modes=2, config=fast_config, method=METHOD_INDEPENDENT
        )
        cache.path_for(key).write_text("{broken")
        telemetry = Telemetry()
        again = FermihedralCompiler(2, fast_config, cache=cache,
                                    telemetry=telemetry)
        result2 = again.hamiltonian_independent()
        assert again.last_cache_status == "miss"
        assert cache_counts(telemetry)["corrupted"] == 1
        assert result2.weight == result1.weight
        # entry was rewritten and reads cleanly now
        assert cache.get(key) is not None

    def test_cacheless_compiler_reports_disabled(self, fast_config):
        compiler = FermihedralCompiler(2, fast_config)
        compiler.hamiltonian_independent()
        assert compiler.last_cache_status == "disabled"

    def test_compile_method_validation(self, fast_config):
        from repro.fermion import hubbard_chain

        compiler = FermihedralCompiler(2, fast_config)
        with pytest.raises(ValueError):
            compiler.compile(method="nope")
        with pytest.raises(ValueError):
            compiler.compile(method="full-sat")  # needs a Hamiltonian
        with pytest.raises(ValueError):
            compiler.compile(
                method="independent", hamiltonian=hubbard_chain(2)
            )

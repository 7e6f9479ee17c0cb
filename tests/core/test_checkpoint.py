"""Descent checkpoints: the document, the sinks, and crash-resume invariance."""

import pytest

from repro import chaos
from repro.core import FermihedralConfig, SolverBudget, descend
from repro.core.checkpoint import (
    CacheCheckpointSink,
    CheckpointSink,
    DescentCheckpoint,
    MemoryCheckpointSink,
)
from repro.core.verify import verify_encoding
from repro.encodings import bravyi_kitaev
from repro.encodings.serialization import encoding_to_dict
from repro.store import CompilationCache
from repro.telemetry import Telemetry


@pytest.fixture(autouse=True)
def _no_ambient_chaos():
    chaos.reset()
    yield
    chaos.reset()


def make_checkpoint(num_modes: int = 2, **overrides) -> DescentCheckpoint:
    encoding = bravyi_kitaev(num_modes)
    fields = dict(
        encoding=encoding_to_dict(encoding),
        weight=encoding.total_majorana_weight,
        steps=[],
        solve_time_s=0.25,
        created_at=1_700_000_000.0,
    )
    fields.update(overrides)
    return DescentCheckpoint(**fields)


# -- the checkpoint document --------------------------------------------------


class TestDescentCheckpoint:
    def test_round_trip(self):
        checkpoint = make_checkpoint(steps=[{"bound": 6, "status": "SAT"}])
        clone = DescentCheckpoint.from_dict(checkpoint.to_dict())
        assert clone == checkpoint

    def test_version_mismatch_rejected(self):
        data = make_checkpoint().to_dict()
        data["checkpoint_format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            DescentCheckpoint.from_dict(data)

    def test_decode_encoding_round_trips(self):
        restored = make_checkpoint(3).decode_encoding(3)
        assert restored is not None
        assert restored.strings == bravyi_kitaev(3).strings

    def test_decode_encoding_rejects_wrong_modes(self):
        # A checkpoint for another job's shape must cold-start, not crash.
        assert make_checkpoint(3).decode_encoding(2) is None

    def test_decode_encoding_swallows_garbage(self):
        checkpoint = make_checkpoint(encoding={"strings": "not-a-list"})
        assert checkpoint.decode_encoding(2) is None


# -- sinks --------------------------------------------------------------------


class TestSinks:
    def test_base_sink_is_inert(self):
        sink = CheckpointSink()
        assert sink.load() is None
        assert sink.save(make_checkpoint()) is False
        sink.clear()  # no-op, no error

    def test_memory_sink_history_and_clear(self):
        sink = MemoryCheckpointSink()
        first = make_checkpoint(weight=7)
        second = make_checkpoint(weight=5)
        assert sink.save(first) is True
        assert sink.save(second) is True
        assert sink.load() == second
        assert [cp.weight for cp in sink.history] == [7, 5]
        sink.clear()
        assert sink.load() is None
        assert sink.cleared == 1
        # History survives a clear: that is the whole point of the sink.
        assert len(sink.history) == 2

    def test_cache_sink_round_trip_and_clear(self, tmp_path):
        cache = CompilationCache(tmp_path)
        sink = CacheCheckpointSink(cache, "deadbeef")
        assert sink.load() is None
        checkpoint = make_checkpoint(solve_time_s=1.5)
        assert sink.save(checkpoint) is True
        assert cache.checkpoint_path("deadbeef").exists()
        assert sink.load() == checkpoint
        sink.clear()
        assert sink.load() is None
        assert not cache.checkpoint_path("deadbeef").exists()

    def test_cache_sink_tolerates_corruption(self, tmp_path):
        cache = CompilationCache(tmp_path)
        sink = CacheCheckpointSink(cache, "deadbeef")
        sink.save(make_checkpoint())
        cache.checkpoint_path("deadbeef").write_text("{not json")
        assert sink.load() is None

    def test_cache_sink_save_survives_write_faults(self, tmp_path):
        telemetry = Telemetry()
        cache = CompilationCache(tmp_path)
        sink = CacheCheckpointSink(cache, "deadbeef", telemetry=telemetry)
        chaos.configure("checkpoint.write=always")
        assert sink.save(make_checkpoint()) is False
        rendered = telemetry.render_metrics()
        assert "repro_checkpoint_failures_total" in rendered

    def test_checkpoints_are_not_cache_entries(self, tmp_path):
        # A checkpoint is transient execution state, not a result: it must
        # never show up in entry listings or survive as a cache hit.
        cache = CompilationCache(tmp_path)
        CacheCheckpointSink(cache, "deadbeef").save(make_checkpoint())
        assert cache.entries() == []


# -- descent integration ------------------------------------------------------


FAST_BUDGET = SolverBudget(max_conflicts=200_000, time_budget_s=60)


class TestDescentCheckpointing:
    def test_proved_descent_saves_then_clears(self):
        sink = MemoryCheckpointSink()
        result = descend(
            2, FermihedralConfig(budget=FAST_BUDGET), checkpoint=sink
        )
        assert result.proved_optimal
        assert result.weight == 6
        assert not result.resumed
        # Every SAT rung left a checkpoint; the proof then cleared it.
        assert len(sink.history) >= 1
        assert sink.cleared == 1
        assert sink.load() is None

    def test_unproved_descent_keeps_its_checkpoint(self):
        seed = MemoryCheckpointSink()
        descend(2, FermihedralConfig(budget=FAST_BUDGET), checkpoint=seed)
        # Resume from the first rung's checkpoint, but with a budget too
        # small to conclude anything: the run ends unproved and must NOT
        # clear the surviving checkpoint.
        sink = MemoryCheckpointSink(seed.history[0])
        result = descend(
            2,
            FermihedralConfig(budget=SolverBudget(max_conflicts=1)),
            checkpoint=sink,
        )
        assert result.resumed
        assert not result.proved_optimal
        assert sink.cleared == 0
        assert sink.load() is not None

    def test_corrupt_encoding_cold_starts(self):
        sink = MemoryCheckpointSink(
            make_checkpoint(encoding={"strings": "garbage"})
        )
        result = descend(
            2, FermihedralConfig(budget=FAST_BUDGET), checkpoint=sink
        )
        assert not result.resumed
        assert result.proved_optimal and result.weight == 6

    def test_descent_outlives_checkpoint_write_faults(self, tmp_path):
        # Checkpoint persistence is best-effort: a dying disk degrades
        # resumability, never correctness.
        telemetry = Telemetry()
        cache = CompilationCache(tmp_path)
        sink = CacheCheckpointSink(cache, "job-key", telemetry=telemetry)
        chaos.configure("checkpoint.write=always")
        result = descend(
            2,
            FermihedralConfig(budget=FAST_BUDGET),
            telemetry=telemetry,
            checkpoint=sink,
        )
        assert result.proved_optimal and result.weight == 6
        assert "repro_checkpoint_failures_total" in telemetry.render_metrics()


# -- crash-resume invariance (the property the chaos drill relies on) ---------


class TestCrashResumeInvariance:
    """Killing a descent after any completed rung and resuming from its
    checkpoint must converge to the same verdict as the uninterrupted
    run — the exact property the supervised-retry path depends on."""

    def test_linear_resume_matches_uninterrupted(self):
        config = FermihedralConfig(budget=FAST_BUDGET)
        recorder = MemoryCheckpointSink()
        full = descend(2, config, checkpoint=recorder)
        assert full.proved_optimal
        assert len(recorder.history) >= 1

        for crash_point, checkpoint in enumerate(recorder.history):
            sink = MemoryCheckpointSink(checkpoint)
            resumed = descend(2, config, checkpoint=sink)
            assert resumed.resumed, f"checkpoint {crash_point} did not resume"
            assert resumed.weight == full.weight
            assert resumed.proved_optimal == full.proved_optimal
            assert verify_encoding(resumed.encoding).valid
            # Steps accumulate across the crash: prior rungs replay from
            # the checkpoint, so the merged ladder is the full ladder.
            assert [s.bound for s in resumed.steps] == \
                [s.bound for s in full.steps]
            # A resumed run that proves the optimum clears its checkpoint.
            assert sink.cleared == 1 and sink.load() is None

    def test_resume_after_final_sat_rung_still_proves(self):
        # The tightest crash window: the worker died between the last SAT
        # rung and the closing UNSAT proof.  The resumed run only needs
        # the one UNSAT call, and its proof must check out.
        config = FermihedralConfig(budget=FAST_BUDGET, proof=True)
        recorder = MemoryCheckpointSink()
        full = descend(2, config, checkpoint=recorder)
        assert full.proved_optimal

        sink = MemoryCheckpointSink(recorder.history[-1])
        resumed = descend(2, config, checkpoint=sink)
        assert resumed.resumed
        assert resumed.proved_optimal
        assert resumed.weight == full.weight
        assert resumed.encoding.strings == full.encoding.strings
        assert resumed.proof_trace is not None
        from repro.sat.drat import check_trace

        assert check_trace(resumed.proof_trace).ok

    def test_resumes_bump_the_telemetry_counter(self):
        telemetry = Telemetry()
        recorder = MemoryCheckpointSink()
        config = FermihedralConfig(budget=FAST_BUDGET)
        descend(2, config, checkpoint=recorder)
        sink = MemoryCheckpointSink(recorder.history[0])
        descend(2, config, telemetry=telemetry, checkpoint=sink)
        assert "repro_descent_resumes_total" in telemetry.render_metrics()


# -- documents written before the next bound was derived ----------------------


def legacy_document(num_modes: int, next_bound: int) -> dict:
    """A checkpoint as older writers stored it: with the loop's strategy,
    the bound it was about to chase and a repair count."""
    encoding = bravyi_kitaev(num_modes)
    return {
        "checkpoint_format_version": 1,
        "strategy": "linear",
        "next_bound": next_bound,
        "encoding": encoding_to_dict(encoding),
        "weight": encoding.total_majorana_weight,
        "steps": [],
        "lower": None,
        "upper": None,
        "solve_time_s": 0.0,
        "repairs": 0,
        "created_at": 1_700_000_000.0,
    }


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("num_modes,optimum", [(2, 6), (3, 11)])
    def test_next_bound_below_the_encoding_does_not_block_the_proof(
            self, num_modes, optimum):
        # The stored next bound (3) lies far under the optimum.  The
        # resumed descent asks one below the encoding's weight instead,
        # so the run proves the optimum rather than refuting 3 and
        # returning the baseline unproved on every retry.
        sink = MemoryCheckpointSink(
            DescentCheckpoint.from_dict(legacy_document(num_modes, 3)))
        result = descend(num_modes, FermihedralConfig(budget=FAST_BUDGET),
                         checkpoint=sink)
        assert result.resumed
        assert result.proved_optimal and result.weight == optimum
        assert result.steps[0].bound == \
            bravyi_kitaev(num_modes).total_majorana_weight - 1
        assert sink.cleared == 1

    def test_legacy_document_resumes(self, tmp_path):
        cache = CompilationCache(tmp_path)
        cache.put_checkpoint("job-key", legacy_document(2, 6))
        sink = CacheCheckpointSink(cache, "job-key")
        assert sink.load() is not None
        result = descend(2, FermihedralConfig(budget=FAST_BUDGET),
                         checkpoint=sink)
        assert result.resumed
        assert result.proved_optimal and result.weight == 6
        assert verify_encoding(result.encoding).valid

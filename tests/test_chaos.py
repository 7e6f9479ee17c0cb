"""The structured chaos engine: grammar, triggers, typing, and label scopes."""

from __future__ import annotations

import pytest

from repro import chaos
from repro.chaos import (
    CHAOS_ENV,
    CHAOS_SEED_ENV,
    FAULT_POINTS,
    ChaosEngine,
    ChaosFault,
    ChaosIOFault,
    FaultRule,
    parse_rules,
)
from repro.telemetry import Telemetry


@pytest.fixture(autouse=True)
def _isolated_engine():
    """Each test gets a fresh module-level engine and leaves none behind."""
    chaos.reset()
    yield
    chaos.reset()


# -- grammar ------------------------------------------------------------------


def test_parse_simple_rules():
    rules = parse_rules("cache.write=once,solver.slice=always")
    assert rules["cache.write"] == FaultRule("cache.write", "once")
    assert rules["solver.slice"] == FaultRule("solver.slice", "always")


def test_parse_after_prob_and_kill():
    rules = parse_rules("solver.slice=after:3:kill, cache.read=prob:0.25")
    assert rules["solver.slice"].trigger == "after"
    assert rules["solver.slice"].after == 3
    assert rules["solver.slice"].kill is True
    assert rules["cache.read"].probability == 0.25
    assert rules["cache.read"].kill is False


def test_bare_point_defaults_to_once():
    assert parse_rules("http.handler")["http.handler"].trigger == "once"


def test_parse_rejects_unknown_point():
    with pytest.raises(ValueError, match="unknown chaos point"):
        parse_rules("cache.explode=once")


def test_parse_rejects_unknown_trigger():
    with pytest.raises(ValueError, match="unknown chaos trigger"):
        parse_rules("cache.read=sometimes")


def test_parse_rejects_malformed_args():
    with pytest.raises(ValueError, match="needs a count"):
        parse_rules("solver.slice=after")
    with pytest.raises(ValueError, match="needs a probability"):
        parse_rules("cache.read=prob")
    with pytest.raises(ValueError, match="out of"):
        parse_rules("cache.read=prob:1.5")
    with pytest.raises(ValueError, match="takes no argument"):
        parse_rules("cache.read=once:3")


# -- trigger semantics --------------------------------------------------------


def hits_that_fault(engine: ChaosEngine, point: str, n: int) -> list[int]:
    fired = []
    for hit in range(1, n + 1):
        try:
            engine.inject(point)
        except ChaosFault:
            fired.append(hit)
    return fired


def test_once_faults_only_first_hit():
    engine = ChaosEngine(parse_rules("job.run=once"))
    assert hits_that_fault(engine, "job.run", 5) == [1]


def test_always_faults_every_hit():
    engine = ChaosEngine(parse_rules("job.run=always"))
    assert hits_that_fault(engine, "job.run", 4) == [1, 2, 3, 4]


def test_after_passes_n_then_faults():
    engine = ChaosEngine(parse_rules("solver.slice=after:2"))
    assert hits_that_fault(engine, "solver.slice", 5) == [3, 4, 5]


def test_prob_is_deterministic_per_seed():
    first = hits_that_fault(
        ChaosEngine(parse_rules("cache.read=prob:0.5"), seed=7),
        "cache.read", 64,
    )
    replay = hits_that_fault(
        ChaosEngine(parse_rules("cache.read=prob:0.5"), seed=7),
        "cache.read", 64,
    )
    other_seed = hits_that_fault(
        ChaosEngine(parse_rules("cache.read=prob:0.5"), seed=8),
        "cache.read", 64,
    )
    assert first == replay
    assert first != other_seed
    assert 0 < len(first) < 64  # actually probabilistic, not constant


def test_prob_extremes():
    never = ChaosEngine(parse_rules("cache.read=prob:0.0"))
    assert hits_that_fault(never, "cache.read", 16) == []
    always = ChaosEngine(parse_rules("cache.read=prob:1.0"))
    assert hits_that_fault(always, "cache.read", 4) == [1, 2, 3, 4]


def test_unarmed_point_never_faults():
    engine = ChaosEngine(parse_rules("cache.read=always"))
    engine.inject("cache.write")  # different point: no-op
    assert engine.hits.get("cache.write") is None


def test_inert_engine_is_inactive():
    assert not ChaosEngine().active
    assert ChaosEngine(parse_rules("job.run=once")).active


# -- fault typing -------------------------------------------------------------


def test_io_points_raise_oserror_subclass():
    for point in ("cache.read", "cache.write", "checkpoint.write"):
        engine = ChaosEngine(parse_rules(f"{point}=once"))
        with pytest.raises(OSError) as excinfo:
            engine.inject(point)
        assert isinstance(excinfo.value, ChaosIOFault)
        assert excinfo.value.point == point


def test_non_io_points_raise_plain_chaosfault():
    engine = ChaosEngine(parse_rules("worker.spawn=once"))
    with pytest.raises(ChaosFault) as excinfo:
        engine.inject("worker.spawn")
    assert not isinstance(excinfo.value, OSError)
    assert isinstance(excinfo.value, RuntimeError)


def test_fault_message_carries_the_grep_marker():
    engine = ChaosEngine(parse_rules("job.run=once"))
    with pytest.raises(ChaosFault, match="chaos fault injected"):
        engine.inject("job.run", label="drill")  # unscoped: any label


def test_every_fault_point_parses():
    spec = ",".join(f"{point}=once" for point in FAULT_POINTS)
    assert set(parse_rules(spec)) == set(FAULT_POINTS)


# -- counters and telemetry ---------------------------------------------------


def test_hit_and_fault_counters():
    engine = ChaosEngine(parse_rules("solver.slice=after:1"))
    hits_that_fault(engine, "solver.slice", 3)
    assert engine.hits["solver.slice"] == 3
    assert engine.faults["solver.slice"] == 2


def test_injected_faults_bump_telemetry_counter():
    telemetry = Telemetry()
    engine = ChaosEngine(parse_rules("worker.spawn=always"))
    for _ in range(3):
        with pytest.raises(ChaosFault):
            engine.inject("worker.spawn", telemetry=telemetry)
    rendered = telemetry.render_metrics()
    assert "repro_chaos_faults_total" in rendered
    assert 'point="worker.spawn"' in rendered


# -- module-level engine / env arming -----------------------------------------


def test_engine_arms_from_environment(monkeypatch):
    monkeypatch.setenv(CHAOS_ENV, "job.run=once")
    monkeypatch.setenv(CHAOS_SEED_ENV, "3")
    chaos.reset()
    with pytest.raises(ChaosFault):
        chaos.inject("job.run")
    chaos.inject("job.run")  # once: second hit passes
    assert chaos.engine().seed == 3


def test_configure_accepts_spec_string_and_none():
    chaos.configure("cache.write=always")
    with pytest.raises(ChaosIOFault):
        chaos.inject("cache.write")
    chaos.configure(None)
    chaos.inject("cache.write")  # inert again


def test_unset_environment_means_inert(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    chaos.reset()
    for point in FAULT_POINTS:
        chaos.inject(point)  # all no-ops


# -- label-scoped rules -------------------------------------------------------


def test_scoped_rule_fires_only_on_matching_labels(arm_chaos):
    arm_chaos("job.run@chaos=always")
    assert chaos.engine().rules["job.run@chaos"] == FaultRule(
        "job.run", "always", label="chaos"
    )
    with pytest.raises(ChaosFault) as excinfo:
        chaos.inject("job.run", label="chaos-drill")
    # The CI forensics drill greps for this marker.
    assert "chaos fault injected" in str(excinfo.value)
    assert "job.run@chaos" in str(excinfo.value)
    assert excinfo.value.point == "job.run"
    chaos.inject("job.run", label="healthy-job")
    chaos.inject("job.run")


def test_scoped_rule_counts_only_matching_calls():
    engine = ChaosEngine(parse_rules("job.run@drill=once,job.run=after:2"))
    engine.inject("job.run", label="healthy")       # unscoped hit 1
    engine.inject("job.run")                        # unscoped hit 2
    with pytest.raises(ChaosFault, match="job.run@drill"):
        engine.inject("job.run", label="drill-1")   # scoped hit 1 fires
    assert engine.hits == {"job.run": 3, "job.run@drill": 1}
    with pytest.raises(ChaosFault, match=r"point job.run \(hit 4\)"):
        engine.inject("job.run", label="drill-2")   # once spent; after:2 fires
    assert engine.faults == {"job.run@drill": 1, "job.run": 1}


def test_scoped_rule_needs_a_label():
    with pytest.raises(ValueError, match="needs a label"):
        parse_rules("job.run@=always")

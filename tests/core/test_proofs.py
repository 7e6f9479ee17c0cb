"""End-to-end tests for optimality-proof capture through the pipeline.

The tentpole property: a ``proof=True`` run whose descent proves
optimality yields a :class:`repro.sat.drat.ProofTrace` that the
independent checker accepts — with and without preprocessing — and
the compiler/cache layers carry the artifact
without perturbing fingerprints.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import repro.core.descent as descent_module
from repro.core import FermihedralCompiler, FermihedralConfig, SolverBudget, descend
from repro.core.claims import check_claim, describe_claim
from repro.encodings.serialization import result_from_dict, result_to_dict
from repro.fermion import tv_chain
from repro.sat.drat import check_trace
from repro.store import CompilationCache


def _proof_config(**overrides) -> FermihedralConfig:
    settings = dict(
        proof=True,
        budget=SolverBudget(max_conflicts=200_000, time_budget_s=60),
    )
    settings.update(overrides)
    return FermihedralConfig(**settings)


class TestDescentEngines:
    @pytest.mark.parametrize("preprocess", [True, False])
    def test_every_engine_emits_a_checkable_trace(self, preprocess):
        config = _proof_config(preprocess=preprocess)
        result = descend(2, config=config)
        assert result.proved_optimal
        assert result.proof_trace is not None
        verdict = check_trace(result.proof_trace)
        assert verdict.ok, verdict.reason
        assert result.proof_trace.meta["engine"] == "incremental"
        # The certified bound is the last refuted rung: optimum - 1.
        assert result.proof_trace.meta["bound"] == result.weight - 1

    def test_proof_off_captures_nothing(self):
        result = descend(2, config=_proof_config(proof=False))
        assert result.proved_optimal
        assert result.proof_trace is None

    def test_hamiltonian_dependent_trace(self):
        result = descend(
            2, config=_proof_config(), hamiltonian=tv_chain(2)
        )
        assert result.proved_optimal
        assert result.proof_trace is not None
        assert check_trace(result.proof_trace).ok


#: Per rung ``(bound, status, conflicts, decisions, propagations)`` and the
#: proof trace's sha256 prefix of the default Full-SAT descent.  Any change
#: to the solver's search (branching, learning, restarts) or to the
#: instance (symmetry breaking, the warm start, the proof claim) moves these.
_PINNED_DESCENTS = {
    2: ([(6, "SAT", 1, 10, 61), (5, "UNSAT", 11, 11, 205)], "327caab4c41d3618"),
    3: ([(13, "SAT", 1, 19, 191), (12, "SAT", 30, 84, 1575),
         (10, "UNSAT", 203, 290, 8662)],
        "7099c016d17476b1"),
    4: ([(20, "SAT", 2, 43, 467), (19, "SAT", 407, 834, 24219),
         (18, "SAT", 265, 445, 17102), (17, "SAT", 6, 65, 816),
         (16, "SAT", 47, 96, 3988), (15, "UNSAT", 1064, 1633, 71433)],
        "22360deb9ffa168c"),
}


@pytest.fixture(scope="module")
def full_sat_descent():
    """Run the default proof descent once per mode count in this module.

    Returns ``(result, heaps)`` where ``heaps`` lists ``(len(order_heap),
    num_vars)`` for every CDCL solver the descent built, read once it ended.
    """
    runs = {}

    def run(num_modes: int):
        if num_modes not in runs:
            solvers = []

            class RecordingSolver(descent_module.CdclSolver):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    solvers.append(self)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(descent_module, "CdclSolver", RecordingSolver)
                result = descend(num_modes, config=_proof_config())
            runs[num_modes] = (result, [(len(solver.order_heap), solver.num_vars)
                                        for solver in solvers])
        return runs[num_modes]

    return run


class TestFullSatOptima:
    """Without the power-set family, Full SAT still proves the paper's
    optima, and every certificate checks against the emitted CNF."""

    @pytest.mark.parametrize("num_modes, optimum", [(2, 6), (3, 11), (4, 16)])
    def test_optimum_proved_with_checkable_trace(self, num_modes, optimum,
                                                 full_sat_descent):
        result, _ = full_sat_descent(num_modes)
        assert result.weight == optimum
        assert result.proved_optimal
        verdict = check_trace(result.proof_trace)
        assert verdict.ok, verdict.reason

    @pytest.mark.parametrize("num_modes", sorted(_PINNED_DESCENTS))
    def test_search_trajectory_is_pinned(self, num_modes, full_sat_descent):
        result, _ = full_sat_descent(num_modes)
        steps, sha_prefix = _PINNED_DESCENTS[num_modes]
        assert [(step.bound, step.status, step.conflicts, step.decisions,
                 step.propagations) for step in result.steps] == steps
        assert result.proof_trace.sha256()[:16] == sha_prefix

    def test_order_heap_stays_bounded(self, full_sat_descent):
        """Stale VSIDS keys are dropped: after the whole N=4 proof the heap
        holds a small multiple of the variable count."""
        _, heaps = full_sat_descent(4)
        assert len(heaps) == 1
        heap_size, num_vars = heaps[0]
        assert heap_size <= 8 * num_vars


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="the N=5 proof takes about a minute (REPRO_SLOW_TESTS=1)",
)
def test_n5_optimum_is_proved_against_its_claim():
    result = descend(5, config=_proof_config(
        budget=SolverBudget(time_budget_s=600)))
    assert result.weight == 22
    assert result.proved_optimal
    trace = result.proof_trace
    assert check_claim(trace) is None
    assert describe_claim(trace.claim) == "N=5 majorana weight ≥ 22"
    verdict = check_trace(trace)
    assert verdict.ok, verdict.reason


class TestCompilerAndCache:
    def test_compile_stores_a_checkable_artifact(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        compiler = FermihedralCompiler(2, _proof_config(), cache=cache)
        result = compiler.hamiltonian_independent()
        assert result.proved_optimal
        assert result.proof is not None
        sha = result.proof["sha256"]
        assert result.proof["artifact"] == str(cache.proof_path(sha))
        trace = cache.get_proof(sha)
        assert trace is not None
        assert trace.sha256() == sha
        assert check_trace(trace).ok
        assert result.proof["drat_lines"] == trace.num_proof_lines

    def test_cache_hit_round_trips_proof_metadata(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        first = FermihedralCompiler(2, _proof_config(), cache=cache)
        stored = first.hamiltonian_independent()
        again = FermihedralCompiler(2, _proof_config(), cache=cache)
        result = again.hamiltonian_independent()
        assert again.last_cache_status == "hit"
        assert result.proof == stored.proof

    def test_compile_without_cache_still_attaches_metadata(self):
        compiler = FermihedralCompiler(2, _proof_config())
        result = compiler.hamiltonian_independent()
        assert result.proof is not None
        assert "artifact" not in result.proof
        assert check_trace(result.descent.proof_trace).ok

    def test_corrupted_artifact_reads_as_miss(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        compiler = FermihedralCompiler(2, _proof_config(), cache=cache)
        result = compiler.hamiltonian_independent()
        sha = result.proof["sha256"]
        path = cache.proof_path(sha)
        data = json.loads(path.read_text())
        data["num_variables"] += 1
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        assert cache.get_proof(sha) is None

    def test_gc_leaves_proof_artifacts_alone(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        compiler = FermihedralCompiler(2, _proof_config(), cache=cache)
        result = compiler.hamiltonian_independent()
        sha = result.proof["sha256"]
        report = cache.gc()
        assert not report.removed
        assert cache.get_proof(sha) is not None

    def test_put_proof_is_idempotent(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        compiler = FermihedralCompiler(2, _proof_config(), cache=cache)
        trace = compiler.hamiltonian_independent().descent.proof_trace
        sha_a, path_a = cache.put_proof(trace)
        sha_b, path_b = cache.put_proof(trace)
        assert (sha_a, path_a) == (sha_b, path_b)
        assert cache.proof_shas() == [sha_a]

    def test_fingerprint_ignores_the_proof_knob(self, tmp_path):
        cache = CompilationCache(tmp_path / "cache")
        on = _proof_config()
        off = dataclasses.replace(on, proof=False)
        key_on = cache.key_for(num_modes=2, config=on, hamiltonian=None,
                               method="independent", schedule=None,
                               seed=2024, device=None)
        key_off = cache.key_for(num_modes=2, config=off, hamiltonian=None,
                                method="independent", schedule=None,
                                seed=2024, device=None)
        assert key_on == key_off

    def test_result_serialization_round_trips_proof(self):
        compiler = FermihedralCompiler(2, _proof_config())
        result = compiler.hamiltonian_independent()
        clone = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert clone.proof == result.proof

    def test_results_without_proof_serialize_as_before(self):
        compiler = FermihedralCompiler(2, _proof_config(proof=False))
        result = compiler.hamiltonian_independent()
        data = result_to_dict(result)
        assert data["proof"] is None
        assert result_from_dict(data).proof is None

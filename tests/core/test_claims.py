"""Proof artifacts bound to their claim, and malformed artifacts failing closed.

A format-v2 :class:`~repro.sat.drat.ProofTrace` names the instance it
refutes; :func:`repro.core.claims.check_claim` rebuilds that instance and
rejects any artifact whose CNF, assumption or axioms differ from it.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.core.descent as descent_module
from repro.cli import main
from repro.core import FermihedralConfig, SolverBudget, descend
from repro.core.claims import check_claim, describe_claim, rebuild_claim
from repro.fermion import tv_chain
from repro.sat.drat import PROOF_FORMAT_VERSION, ProofTrace, check_trace
from repro.store import CompilationCache


def _config(**overrides) -> FermihedralConfig:
    settings = dict(proof=True, budget=SolverBudget(max_conflicts=200_000))
    settings.update(overrides)
    return FermihedralConfig(**settings)


@pytest.fixture(scope="module")
def trace() -> ProofTrace:
    result = descend(3, config=_config())
    assert result.proved_optimal
    return result.proof_trace


@pytest.fixture(scope="module")
def device_trace(tmp_path_factory) -> ProofTrace:
    """The artifact ``repro solve --device linear-3 --proof`` writes: its
    claim orders the columns within the weight classes {0, 2} and {1}."""
    path = tmp_path_factory.mktemp("device") / "l3.json"
    assert main(["solve", "--modes", "3", "--device", "linear-3", "--proof",
                 "--proof-out", str(path)]) == 0
    return ProofTrace.from_dict(json.loads(path.read_text()))


def _unbound(trace: ProofTrace) -> ProofTrace:
    return dataclasses.replace(trace, claim=None)


class TestClaimBinding:
    def test_descent_trace_carries_its_claim(self, trace):
        assert trace.to_dict()["proof_format_version"] == PROOF_FORMAT_VERSION
        assert trace.claim == {
            "modes": 3, "objective": "majorana", "monomials": None,
            "qubit_weights": None, "vacuum": "sufficient",
            "symmetry": "column-lex", "max_bound": 13, "bound": 10,
        }
        assert check_claim(trace) is None
        assert check_trace(trace).ok
        assert describe_claim(trace.claim) == "N=3 majorana weight ≥ 11"

    @pytest.mark.parametrize("overrides, hamiltonian, symmetry, text", [
        (dict(exact_vacuum=True), None, "column-lex",
         "N=2 majorana weight ≥ 6 (vacuum exact)"),
        (dict(vacuum_preservation=False), None, "column-lex",
         "N=2 majorana weight ≥ 6 (vacuum none)"),
        (dict(qubit_weights=(1, 2)), None, "none",
         "N=2 majorana weight ≥ 8 (qubit weights 1,2)"),
        (dict(), tv_chain(2), "column-lex", None),
    ], ids=["exact", "no-vacuum", "weighted", "hamiltonian"])
    def test_every_instance_shape_rebuilds(self, overrides, hamiltonian,
                                           symmetry, text):
        result = descend(2, config=_config(**overrides),
                         hamiltonian=hamiltonian)
        assert result.proved_optimal
        claim = result.proof_trace.claim
        assert claim["symmetry"] == symmetry
        assert check_claim(result.proof_trace) is None
        if text is not None:
            assert describe_claim(claim) == text
        else:
            assert claim["objective"] == "hamiltonian"
            assert claim["monomials"] == [list(m) for m in hamiltonian.monomials]

    def test_claim_is_part_of_the_content_address(self, trace):
        assert _unbound(trace).sha256() != trace.sha256()
        clone = ProofTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone == trace
        assert clone.sha256() == trace.sha256()


class TestTampering:
    def test_other_cnf_is_a_mismatch(self, trace):
        formula, _ = rebuild_claim(dict(trace.claim, max_bound=14))
        tampered = dataclasses.replace(trace, cnf=formula.to_dimacs())
        assert "CNF" in check_claim(tampered)

    def test_other_bound_is_a_mismatch(self, trace):
        tampered = dataclasses.replace(trace, claim=dict(trace.claim, bound=9))
        assert "selector" in check_claim(tampered)

    def test_other_selector_is_a_mismatch(self, trace):
        _, selectors = rebuild_claim(trace.claim)
        tampered = dataclasses.replace(trace, assumptions=(selectors[9],))
        assert "selector" in check_claim(tampered)

    def test_axioms_are_a_mismatch(self, trace):
        tampered = dataclasses.replace(trace, axioms=((1,),))
        assert "axioms" in check_claim(tampered)

    def test_claimed_symmetry_must_match_the_cnf(self, trace):
        tampered = dataclasses.replace(
            trace, claim=dict(trace.claim, symmetry="none"))
        assert "CNF" in check_claim(tampered)

    def test_other_class_pattern_is_a_mismatch(self, device_trace):
        assert device_trace.claim["qubit_weights"] == [2, 1, 2]
        tampered = dataclasses.replace(
            device_trace, claim=dict(device_trace.claim, qubit_weights=[2, 2, 1]))
        assert "CNF" in check_claim(tampered)

    @pytest.mark.parametrize("change", [
        {"modes": 0}, {"objective": "depth"}, {"vacuum": "maybe"},
        {"bound": 11}, {"monomials": [[0, 1]]}, {"extra": 1},
        {"modes": 10**6}, {"max_bound": 10**9},
    ])
    def test_malformed_claims_are_mismatches(self, trace, change):
        tampered = dataclasses.replace(trace, claim=dict(trace.claim, **change))
        assert check_claim(tampered) is not None

    @pytest.mark.parametrize("tamper", ["cnf", "bound", "selector"])
    def test_cli_reports_a_claim_mismatch(self, trace, tamper, tmp_path,
                                          capsys):
        if tamper == "cnf":
            formula, _ = rebuild_claim(dict(trace.claim, max_bound=14))
            tampered = dataclasses.replace(trace, cnf=formula.to_dimacs())
        elif tamper == "bound":
            tampered = dataclasses.replace(
                trace, claim=dict(trace.claim, bound=9))
        else:
            _, selectors = rebuild_claim(trace.claim)
            tampered = dataclasses.replace(trace, assumptions=(selectors[9],))
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered.to_dict(), sort_keys=True))
        assert main(["verify-proof", str(path)]) == 1
        assert "verdict:         FAILED (claim mismatch: " \
            in capsys.readouterr().out


class TestWeightClasses:
    """Column-lex within classes of equal qubit weight: new device
    artifacts verify, and the ``"none"`` artifacts every device-weighted
    proof carried before still do."""

    def test_device_artifact_verifies(self, device_trace, tmp_path, capsys):
        assert device_trace.claim["symmetry"] == "column-lex"
        path = tmp_path / "l3.json"
        path.write_text(json.dumps(device_trace.to_dict(), sort_keys=True))
        assert main(["verify-proof", str(path)]) == 0
        out = capsys.readouterr().out
        assert "claim:           N=3 majorana weight ≥ 16 (qubit weights 2,1,2)" \
            in out
        assert "verdict:         OK" in out

    def test_unbroken_claim_still_verifies(self, monkeypatch):
        monkeypatch.setattr(descent_module, "symmetry_for",
                            lambda weights: "none")
        result = descend(3, config=_config(qubit_weights=(2, 1, 2)))
        assert result.proved_optimal and result.weight == 16
        assert result.proof_trace.claim["symmetry"] == "none"
        assert check_claim(result.proof_trace) is None
        assert check_trace(result.proof_trace).ok


class TestCli:
    def test_v2_artifact_prints_its_claim(self, trace, tmp_path, capsys):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(trace.to_dict(), sort_keys=True))
        assert main(["verify-proof", str(path)]) == 0
        out = capsys.readouterr().out
        assert "claim:           N=3 majorana weight ≥ 11" in out
        assert "verdict:         OK" in out

    def test_v1_artifact_still_verifies_unbound(self, trace, tmp_path, capsys):
        unbound = _unbound(trace)
        assert unbound.to_dict()["proof_format_version"] == 1
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(unbound.to_dict(), sort_keys=True))
        assert main(["verify-proof", str(path)]) == 0
        out = capsys.readouterr().out
        assert "claim:           unbound (format v1)" in out
        assert "verdict:         OK" in out

    @pytest.mark.parametrize("document", [
        [1, 2], {"proof_format_version": 1}, {"proof_format_version": 2},
    ], ids=["array", "v1-empty", "v2-empty"])
    def test_malformed_artifact_fails_closed(self, document, tmp_path,
                                             capsys):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(document))
        assert main(["verify-proof", str(path)]) == 1
        assert "verdict:         FAILED (artifact is corrupted or unreadable)" \
            in capsys.readouterr().out

    def test_malformed_cached_artifact_fails_closed(self, tmp_path, capsys):
        cache = CompilationCache(tmp_path / "cache")
        sha = "ab" * 32
        path = cache.proof_path(sha)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2]")
        assert cache.get_proof(sha) is None
        assert main(["verify-proof", sha[:12], "--dir",
                     str(tmp_path / "cache")]) == 1
        assert "FAILED (artifact is corrupted or unreadable)" \
            in capsys.readouterr().out


class TestJobsProof:
    """``repro jobs proof`` checks a served trace as ``verify-proof`` does."""

    def _serve(self, monkeypatch, document, sha256=None):
        from repro.service import ServiceClient

        payload = {"id": "ab" * 32, "proof": {"sha256": sha256},
                   "trace": document}
        monkeypatch.setattr(ServiceClient, "proof",
                            lambda client, job_id: payload)
        return main(["jobs", "proof", "ab" * 6,
                     "--url", "http://127.0.0.1:9"])

    def test_served_proof_prints_its_claim(self, trace, monkeypatch, capsys):
        assert self._serve(monkeypatch, trace.to_dict(), trace.sha256()) == 0
        out = capsys.readouterr().out
        assert "claim:           N=3 majorana weight ≥ 11" in out
        assert "verdict:         OK" in out

    def test_tampered_claim_is_a_mismatch(self, trace, monkeypatch, capsys):
        tampered = dataclasses.replace(trace, claim=dict(trace.claim, bound=9))
        assert check_trace(tampered).ok  # the DRAT check alone passes
        code = self._serve(monkeypatch, tampered.to_dict(), tampered.sha256())
        assert code == 1
        assert "verdict:         FAILED (claim mismatch: " \
            in capsys.readouterr().out

    def test_malformed_trace_fails_without_a_traceback(self, monkeypatch,
                                                       capsys):
        assert self._serve(monkeypatch, [1, 2]) == 1
        assert "verdict:         FAILED (artifact is corrupted or unreadable)" \
            in capsys.readouterr().out


class TestFromDict:
    @pytest.fixture(params=["v1", "v2"])
    def document(self, request, trace) -> dict:
        chosen = trace if request.param == "v2" else _unbound(trace)
        return chosen.to_dict()

    def test_round_trip(self, document):
        assert ProofTrace.from_dict(document).to_dict() == document

    def test_non_object_is_rejected(self):
        for document in ([1, 2], "proof", None, 7):
            with pytest.raises(ValueError, match="not a JSON object"):
                ProofTrace.from_dict(document)

    @pytest.mark.parametrize("field", ["num_variables", "cnf"])
    def test_missing_field_is_rejected(self, document, field):
        del document[field]
        with pytest.raises(ValueError, match=field):
            ProofTrace.from_dict(document)

    @pytest.mark.parametrize("field, value", [
        ("num_variables", "12"), ("num_variables", True), ("cnf", 5),
        ("assumptions", 3), ("assumptions", ["1"]), ("axioms", [5]),
        ("proof", ["0"]), ("meta", []),
    ])
    def test_mistyped_field_is_rejected(self, document, field, value):
        document[field] = value
        with pytest.raises(ValueError, match=field):
            ProofTrace.from_dict(document)

    def test_claim_must_match_the_version(self, trace):
        v2 = trace.to_dict()
        del v2["claim"]
        with pytest.raises(ValueError, match="claim"):
            ProofTrace.from_dict(v2)
        v1 = _unbound(trace).to_dict()
        v1["claim"] = trace.claim
        with pytest.raises(ValueError, match="claim"):
            ProofTrace.from_dict(v1)

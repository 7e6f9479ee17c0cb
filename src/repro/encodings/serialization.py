"""JSON (de)serialization of encodings and full compilation results.

The artifact the compiler produces — an ordered list of Majorana Pauli
strings — is exactly what downstream toolchains need to persist; the JSON
schema keeps it human-readable and versioned.

Two schemas live here:

* **encoding schema** (``format_version``): just the Majorana strings, the
  long-standing interchange format of ``repro solve --output`` and
  ``repro verify``.
* **result schema** (``result_format_version``): a full
  :class:`repro.core.pipeline.CompilationResult` — encoding, method,
  weight, optimality proof status, the complete descent trace, and the
  annealing/verification records when present.  This is what the
  ``repro.store`` compilation cache persists, so cached entries can be
  returned as first-class results (descent step counts included) without
  re-running the solver.

The result (de)serializers import the core dataclasses lazily: ``repro.core``
imports this package's siblings, and keeping the dependency one-way at
module-import time avoids a cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.encodings.base import MajoranaEncoding
from repro.paulis.strings import PauliString

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import CompilationResult

_FORMAT_VERSION = 1
_RESULT_FORMAT_VERSION = 1


def encoding_to_dict(encoding: MajoranaEncoding) -> dict:
    """Plain-data form of an encoding."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": encoding.name,
        "num_modes": encoding.num_modes,
        "majorana_strings": [string.label() for string in encoding.strings],
    }


def encoding_from_dict(data: dict, validate: bool = True) -> MajoranaEncoding:
    """Rebuild an encoding from :func:`encoding_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported encoding format version: {version!r}")
    strings = [PauliString.from_label(label) for label in data["majorana_strings"]]
    encoding = MajoranaEncoding(strings, name=data.get("name", "loaded"),
                                validate=validate)
    if encoding.num_modes != data["num_modes"]:
        raise ValueError("num_modes field inconsistent with string count")
    return encoding


def save_encoding(encoding: MajoranaEncoding, path: str | Path) -> None:
    """Write an encoding to a JSON file."""
    Path(path).write_text(json.dumps(encoding_to_dict(encoding), indent=2) + "\n")


def load_encoding(path: str | Path, validate: bool = True) -> MajoranaEncoding:
    """Read an encoding from a JSON file (validated by default)."""
    return encoding_from_dict(json.loads(Path(path).read_text()), validate=validate)


# -- full compilation results -------------------------------------------------


def step_to_dict(step) -> dict:
    """Plain-data form of one :class:`~repro.core.descent.DescentStep`
    (shared by the result schema and descent checkpoints)."""
    return {
        "bound": step.bound,
        "status": step.status,
        "achieved_weight": step.achieved_weight,
        "elapsed_s": step.elapsed_s,
        "conflicts": step.conflicts,
        "decisions": step.decisions,
        "propagations": step.propagations,
        "restarts": step.restarts,
    }


def step_from_dict(step: dict):
    """Rebuild one descent step from :func:`step_to_dict` output."""
    from repro.core.descent import DescentStep
    from repro.sat.solver import SolverStats

    return DescentStep(
        bound=step["bound"],
        status=step["status"],
        achieved_weight=step["achieved_weight"],
        elapsed_s=step["elapsed_s"],
        stats=SolverStats(
            conflicts=step.get("conflicts", 0),
            decisions=step.get("decisions", 0),
            propagations=step.get("propagations", 0),
            restarts=step.get("restarts", 0),
        ),
    )


def result_to_dict(result: CompilationResult) -> dict:
    """Plain-data form of a full compilation result (result schema v1)."""
    descent = result.descent
    data: dict = {
        "result_format_version": _RESULT_FORMAT_VERSION,
        "encoding": encoding_to_dict(result.encoding),
        "method": result.method,
        "weight": result.weight,
        "proved_optimal": result.proved_optimal,
        "degraded": result.degraded,
        "descent": {
            "encoding": encoding_to_dict(descent.encoding),
            "weight": descent.weight,
            "proved_optimal": descent.proved_optimal,
            "steps": [step_to_dict(step) for step in descent.steps],
            "construct_time_s": descent.construct_time_s,
            "solve_time_s": descent.solve_time_s,
            "preprocess_time_s": descent.preprocess_time_s,
            "repairs": descent.repairs,
            "degraded": descent.degraded,
            "target_bound": descent.target_bound,
            "resumed": descent.resumed,
        },
        "annealing": None,
        "verification": None,
        "device": result.device,
        "hardware": None if result.hardware is None else result.hardware.as_dict(),
        "proof": result.proof,
    }
    if result.annealing is not None:
        annealing = result.annealing
        data["annealing"] = {
            "encoding": encoding_to_dict(annealing.encoding),
            "weight": annealing.weight,
            "initial_weight": annealing.initial_weight,
            "mode_order": list(annealing.mode_order),
            "accepted_moves": annealing.accepted_moves,
            "attempted_moves": annealing.attempted_moves,
            "history": list(annealing.history),
        }
    if result.verification is not None:
        verification = result.verification
        data["verification"] = {
            "anticommutativity": verification.anticommutativity,
            "algebraic_independence": verification.algebraic_independence,
            "vacuum_preservation": verification.vacuum_preservation,
            "violations": list(verification.violations),
        }
    return data


def result_from_dict(data: dict, validate: bool = True) -> CompilationResult:
    """Rebuild a compilation result from :func:`result_to_dict` output.

    Args:
        data: a result-schema dictionary.
        validate: re-check the encoding constraints while rebuilding the
            Majorana strings (recommended for data read from disk).

    Raises:
        ValueError: on an unknown schema version or malformed payload.
    """
    from repro.core.annealing import AnnealingResult
    from repro.core.descent import DescentResult
    from repro.core.pipeline import CompilationResult
    from repro.core.verify import VerificationReport

    version = data.get("result_format_version")
    if version != _RESULT_FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")

    descent_data = data["descent"]
    descent = DescentResult(
        encoding=encoding_from_dict(descent_data["encoding"], validate=validate),
        weight=descent_data["weight"],
        proved_optimal=descent_data["proved_optimal"],
        steps=[step_from_dict(step)
               for step in descent_data.get("steps", [])],
        construct_time_s=descent_data.get("construct_time_s", 0.0),
        solve_time_s=descent_data.get("solve_time_s", 0.0),
        preprocess_time_s=descent_data.get("preprocess_time_s", 0.0),
        repairs=descent_data.get("repairs", 0),
        # resilience fields postdate schema v1 entries; default like any run
        # that finished cleanly.
        degraded=descent_data.get("degraded", False),
        target_bound=descent_data.get("target_bound"),
        resumed=descent_data.get("resumed", False),
    )

    annealing = None
    if data.get("annealing") is not None:
        annealing_data = data["annealing"]
        annealing = AnnealingResult(
            encoding=encoding_from_dict(annealing_data["encoding"], validate=validate),
            weight=annealing_data["weight"],
            initial_weight=annealing_data["initial_weight"],
            mode_order=list(annealing_data["mode_order"]),
            accepted_moves=annealing_data.get("accepted_moves", 0),
            attempted_moves=annealing_data.get("attempted_moves", 0),
            history=list(annealing_data.get("history", [])),
        )

    verification = None
    if data.get("verification") is not None:
        verification_data = data["verification"]
        verification = VerificationReport(
            anticommutativity=verification_data["anticommutativity"],
            algebraic_independence=verification_data["algebraic_independence"],
            vacuum_preservation=verification_data["vacuum_preservation"],
            violations=list(verification_data.get("violations", [])),
        )

    hardware = None
    if data.get("hardware") is not None:
        from repro.hardware.cost import HardwareCost

        hardware = HardwareCost.from_dict(data["hardware"])

    return CompilationResult(
        encoding=encoding_from_dict(data["encoding"], validate=validate),
        method=data["method"],
        weight=data["weight"],
        proved_optimal=data["proved_optimal"],
        descent=descent,
        annealing=annealing,
        verification=verification,
        device=data.get("device"),
        hardware=hardware,
        proof=data.get("proof"),
        degraded=data.get("degraded", False),
    )


def save_result(result: CompilationResult, path: str | Path) -> None:
    """Write a full compilation result to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def load_result(path: str | Path, validate: bool = True) -> CompilationResult:
    """Read a full compilation result from a JSON file."""
    return result_from_dict(json.loads(Path(path).read_text()), validate=validate)

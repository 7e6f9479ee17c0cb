"""Stable content fingerprints for compilation jobs.

The SAT descent is fully deterministic given ``(num_modes, config,
Hamiltonian, method)`` — and, for the annealing method, the cooling
schedule and RNG seed.  A compilation cache therefore needs exactly one
thing from this module: a collision-resistant key that is *identical*
for equivalent jobs and *different* for jobs that could produce different
results.

Canonicalization choices:

* **Hamiltonians** fingerprint as their sorted set of canonical Majorana
  support monomials, not their coefficients.  Every weight objective in
  the compiler (SAT indicators, annealing energy) depends only on *which*
  monomials appear — two Hamiltonians with the same support (e.g. H2 at
  two bond lengths) compile to the same encoding, and the cache treats
  them as the same job.
* **Configs** fingerprint field-by-field, budgets included: a
  budget-starved run may legitimately return a different (unproved)
  result than a generous one.
* **Devices** fingerprint by *shape* — qubit count plus the canonical
  edge list — not by display name: routing and the connectivity-weighted
  objective see only the coupling graph, so two names for the same graph
  are the same job, while any topological difference (the thing that can
  change routed cost) produces a distinct key.
* The payload is serialized as minified, key-sorted JSON and hashed with
  SHA-256; the hex digest is the cache key.  ``FINGERPRINT_VERSION`` is
  part of the payload, so any future canonicalization change invalidates
  old keys instead of silently colliding with them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core.config import (
    COMPILE_METHODS,
    EXECUTION_ONLY_FIELDS,
    METHOD_ANNEALING,
    AnnealingSchedule,
    FermihedralConfig,
)
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.hardware.topology import DeviceTopology

#: v2 added the ``device`` entry (hardware-aware compilation).
FINGERPRINT_VERSION = 2

#: Config fields the descent no longer has, at the one value each can now
#: take: the linear loop, the baseline's starting bound, seeded phases and
#: the retired repair cap.  Every v2 key was built with them, so
#: :func:`canonical_config` writes them back and keys stay unchanged.
RETIRED_CONFIG_FIELDS = {
    "strategy": "linear",
    "start_weight": None,
    "warm_start": True,
    "max_repairs": 32,
}


def canonical_config(config: FermihedralConfig) -> dict:
    """Plain-data form of a config, stable across sessions.

    Derived field-by-field from the dataclass so a future config field
    changes the fingerprint automatically (fails closed) instead of
    silently colliding with pre-existing keys.  Execution-strategy fields
    (:data:`repro.core.config.EXECUTION_ONLY_FIELDS` — preprocess, proof,
    deadline_s) are excluded: they decide *how* a job is solved, not
    *what* it computes.  Any of several equally-optimal encodings may
    come back, but the achieved weight and optimality proof are
    invariant, which is the identity the cache promises.  The
    :data:`RETIRED_CONFIG_FIELDS` are added back at their fixed values.
    """
    data = dataclasses.asdict(config)
    for name in EXECUTION_ONLY_FIELDS:
        data.pop(name, None)
    data.update(RETIRED_CONFIG_FIELDS)
    return data


def canonical_hamiltonian(hamiltonian: FermionicHamiltonian) -> list[list[int]]:
    """Sorted support monomials — all the compiler ever reads of a Hamiltonian."""
    return sorted([list(monomial) for monomial in hamiltonian.monomials])


def canonical_device(topology: DeviceTopology) -> dict:
    """Plain-data shape of a device: qubit count + canonical edge list.

    Deliberately name-free (see the module docstring) — the graph is the
    only thing routing and the weighted objective consume.
    """
    return {
        "num_qubits": topology.num_qubits,
        "edges": [list(edge) for edge in topology.edges],
    }


def canonical_schedule(schedule: AnnealingSchedule) -> dict:
    """Plain-data form of an annealing schedule."""
    return {
        "initial_temperature": schedule.initial_temperature,
        "final_temperature": schedule.final_temperature,
        "temperature_step": schedule.temperature_step,
        "iterations_per_step": schedule.iterations_per_step,
        "boltzmann_constant": schedule.boltzmann_constant,
    }


def job_payload(
    num_modes: int,
    config: FermihedralConfig,
    hamiltonian: FermionicHamiltonian | None = None,
    method: str = "independent",
    schedule: AnnealingSchedule | None = None,
    seed: int | None = None,
    device: DeviceTopology | None = None,
) -> dict:
    """The canonical, JSON-serializable identity of one compilation job.

    Args:
        num_modes: number of fermionic modes.
        config: full compiler configuration (budget included).
        hamiltonian: target Hamiltonian for the dependent methods; must be
            ``None`` for the ``independent`` method.
        method: one of :data:`repro.core.config.COMPILE_METHODS`.
        schedule: annealing schedule; only fingerprinted for the
            ``sat+annealing`` method (defaults applied there).
        seed: annealing RNG seed; only fingerprinted for ``sat+annealing``.
        device: target topology for hardware-aware jobs; two jobs that
            differ only in device shape never share a key.
    """
    if method not in COMPILE_METHODS:
        raise ValueError(
            f"unknown compile method {method!r}; expected one of {COMPILE_METHODS}"
        )
    payload: dict = {
        "fingerprint_version": FINGERPRINT_VERSION,
        "num_modes": num_modes,
        "method": method,
        "config": canonical_config(config),
        "hamiltonian": (
            None if hamiltonian is None else canonical_hamiltonian(hamiltonian)
        ),
        "annealing": None,
        "device": None if device is None else canonical_device(device),
    }
    if method == METHOD_ANNEALING:
        payload["annealing"] = {
            "schedule": canonical_schedule(schedule or AnnealingSchedule()),
            "seed": seed if seed is not None else 2024,
        }
    return payload


def compilation_key(
    num_modes: int,
    config: FermihedralConfig,
    hamiltonian: FermionicHamiltonian | None = None,
    method: str = "independent",
    schedule: AnnealingSchedule | None = None,
    seed: int | None = None,
    device: DeviceTopology | None = None,
) -> str:
    """SHA-256 hex key identifying one compilation job (see module docs)."""
    payload = job_payload(
        num_modes, config, hamiltonian, method, schedule, seed, device
    )
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

"""Tests for compilation-job fingerprints."""

import pytest

from repro.core import (
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    AnnealingSchedule,
    FermihedralConfig,
    SolverBudget,
)
from repro.fermion import MajoranaPolynomial, h2_hamiltonian, hubbard_chain
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.store import compilation_key, job_payload


def _hamiltonian_with_coefficients(scale: float) -> FermionicHamiltonian:
    polynomial = MajoranaPolynomial({(0, 1): 0.5 * scale, (0, 1, 2, 3): 0.25 * scale})
    return FermionicHamiltonian.from_majorana("toy", polynomial, num_modes=2)


class TestStability:
    def test_same_job_same_key(self):
        config = FermihedralConfig()
        first = compilation_key(4, config, h2_hamiltonian(), METHOD_FULL_SAT)
        second = compilation_key(4, config, h2_hamiltonian(), METHOD_FULL_SAT)
        assert first == second

    def test_key_is_hex_sha256(self):
        key = compilation_key(2, FermihedralConfig())
        assert len(key) == 64
        int(key, 16)

    def test_coefficients_do_not_change_the_key(self):
        """Compilation depends only on the monomial support, so rescaled
        Hamiltonians (same molecule, different geometry) share a key."""
        config = FermihedralConfig()
        first = compilation_key(
            2, config, _hamiltonian_with_coefficients(1.0), METHOD_FULL_SAT
        )
        second = compilation_key(
            2, config, _hamiltonian_with_coefficients(-3.7), METHOD_FULL_SAT
        )
        assert first == second


    def test_pinned_keys(self):
        """Keys of existing cache entries must not drift: the
        ``algebraic_independence`` and ``max_repairs`` fields stay in every
        config payload although neither changes the instance any more."""
        assert compilation_key(3, FermihedralConfig()) == (
            "194a78b6a9e0d97342b0d3fb221fb5ef41498ed4c949463521e72702ed1b23d4"
        )
        assert compilation_key(
            3, FermihedralConfig(algebraic_independence=False)
        ) == "dd5fd77d63bd34625c1486db17260067baf3f93024c57f31068ed53a8520f038"


class TestSensitivity:
    def test_modes_change_the_key(self):
        config = FermihedralConfig()
        assert compilation_key(2, config) != compilation_key(3, config)

    def test_method_changes_the_key(self):
        config = FermihedralConfig()
        h2 = h2_hamiltonian()
        keys = {
            compilation_key(4, config, h2, METHOD_FULL_SAT),
            compilation_key(4, config, h2, METHOD_ANNEALING),
        }
        assert len(keys) == 2

    def test_hamiltonian_changes_the_key(self):
        config = FermihedralConfig()
        assert compilation_key(
            4, config, h2_hamiltonian(), METHOD_FULL_SAT
        ) != compilation_key(4, config, hubbard_chain(2), METHOD_FULL_SAT)

    def test_config_fields_change_the_key(self):
        base = FermihedralConfig()
        variants = [
            FermihedralConfig(algebraic_independence=False),
            FermihedralConfig(vacuum_preservation=False),
            FermihedralConfig(budget=SolverBudget(time_budget_s=1.0)),
        ]
        base_key = compilation_key(3, base)
        for variant in variants:
            assert compilation_key(3, variant) != base_key

    def test_annealing_seed_and_schedule_fingerprinted(self):
        config = FermihedralConfig()
        h2 = h2_hamiltonian()
        by_seed = {
            compilation_key(4, config, h2, METHOD_ANNEALING, seed=seed)
            for seed in (1, 2)
        }
        assert len(by_seed) == 2
        schedule = AnnealingSchedule(iterations_per_step=3)
        assert compilation_key(
            4, config, h2, METHOD_ANNEALING, schedule=schedule
        ) != compilation_key(4, config, h2, METHOD_ANNEALING)

    def test_seed_ignored_outside_annealing(self):
        config = FermihedralConfig()
        h2 = h2_hamiltonian()
        assert compilation_key(
            4, config, h2, METHOD_FULL_SAT, seed=1
        ) == compilation_key(4, config, h2, METHOD_FULL_SAT, seed=2)


class TestDeviceSensitivity:
    def test_device_shapes_change_the_key(self):
        from repro.hardware import all_to_all_topology, linear_topology

        config = FermihedralConfig()
        keys = {
            compilation_key(3, config),
            compilation_key(3, config, device=linear_topology(3)),
            compilation_key(3, config, device=all_to_all_topology(3)),
        }
        assert len(keys) == 3

    def test_device_name_does_not_change_the_key(self):
        """Fingerprints key on the coupling graph, not the display name."""
        from repro.hardware import DeviceTopology, linear_topology

        config = FermihedralConfig()
        named = DeviceTopology(3, [(0, 1), (1, 2)], name="my-favorite-chain")
        assert compilation_key(3, config, device=named) == compilation_key(
            3, config, device=linear_topology(3)
        )

    def test_same_shape_same_key(self):
        from repro.hardware import ring_topology

        config = FermihedralConfig()
        assert compilation_key(3, config, device=ring_topology(3)) == (
            compilation_key(3, config, device=ring_topology(3))
        )

    def test_qubit_weights_change_the_key(self):
        base = FermihedralConfig()
        weighted = base.with_qubit_weights((1, 2, 1))
        assert compilation_key(3, base) != compilation_key(3, weighted)


class TestPayload:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            job_payload(2, FermihedralConfig(), method="quantum-vibes")

    def test_payload_is_json_plain(self):
        import json

        payload = job_payload(
            4, FermihedralConfig(), h2_hamiltonian(), METHOD_ANNEALING, seed=7
        )
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_independent_payload_has_no_hamiltonian(self):
        payload = job_payload(3, FermihedralConfig(), method=METHOD_INDEPENDENT)
        assert payload["hamiltonian"] is None
        assert payload["annealing"] is None

"""Round-trip tests for the full compilation-result schema."""

import pytest

from repro.core import AnnealingSchedule, solve_hamiltonian_independent, solve_sat_annealing
from repro.encodings.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.fermion import hubbard_chain


@pytest.fixture(scope="module")
def independent_result(fast_config):
    return solve_hamiltonian_independent(2, fast_config)


@pytest.fixture(scope="module")
def annealed_result(fast_config):
    schedule = AnnealingSchedule(
        initial_temperature=1.0,
        final_temperature=0.4,
        temperature_step=0.2,
        iterations_per_step=5,
    )
    return solve_sat_annealing(
        hubbard_chain(2, periodic=False), fast_config, schedule=schedule, seed=11
    )


class TestIndependentRoundTrip:
    def test_core_fields_preserved(self, independent_result):
        rebuilt = result_from_dict(result_to_dict(independent_result))
        assert rebuilt.method == independent_result.method
        assert rebuilt.weight == independent_result.weight
        assert rebuilt.proved_optimal == independent_result.proved_optimal
        assert [s.label() for s in rebuilt.encoding.strings] == [
            s.label() for s in independent_result.encoding.strings
        ]

    def test_descent_trace_preserved(self, independent_result):
        rebuilt = result_from_dict(result_to_dict(independent_result))
        original = independent_result.descent
        assert rebuilt.descent.sat_calls == original.sat_calls
        assert rebuilt.descent.weight == original.weight
        assert rebuilt.descent.proved_optimal == original.proved_optimal
        assert rebuilt.descent.solve_time_s == original.solve_time_s
        assert rebuilt.descent.construct_time_s == original.construct_time_s
        for got, expected in zip(rebuilt.descent.steps, original.steps):
            assert got.bound == expected.bound
            assert got.status == expected.status
            assert got.achieved_weight == expected.achieved_weight
            assert got.conflicts == expected.conflicts

    def test_verification_preserved_when_present(self, independent_result):
        independent_result.verify()
        rebuilt = result_from_dict(result_to_dict(independent_result))
        assert rebuilt.verification is not None
        assert rebuilt.verification.valid
        assert (
            rebuilt.verification.vacuum_preservation
            == independent_result.verification.vacuum_preservation
        )

    def test_file_round_trip(self, independent_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(independent_result, path)
        loaded = load_result(path)
        assert loaded.weight == independent_result.weight
        assert loaded.descent.sat_calls == independent_result.descent.sat_calls


class TestAnnealingRoundTrip:
    def test_annealing_record_preserved(self, annealed_result):
        rebuilt = result_from_dict(result_to_dict(annealed_result))
        original = annealed_result.annealing
        assert rebuilt.annealing is not None
        assert rebuilt.annealing.weight == original.weight
        assert rebuilt.annealing.initial_weight == original.initial_weight
        assert rebuilt.annealing.mode_order == original.mode_order
        assert rebuilt.annealing.accepted_moves == original.accepted_moves
        assert rebuilt.annealing.attempted_moves == original.attempted_moves
        assert rebuilt.annealing.history == original.history
        assert rebuilt.method == "sat+annealing"
        assert rebuilt.proved_optimal is False

    def test_both_encodings_preserved(self, annealed_result):
        """The result carries the annealed encoding AND the independent
        descent's encoding; both must survive."""
        rebuilt = result_from_dict(result_to_dict(annealed_result))
        assert [s.label() for s in rebuilt.encoding.strings] == [
            s.label() for s in annealed_result.encoding.strings
        ]
        assert [s.label() for s in rebuilt.descent.encoding.strings] == [
            s.label() for s in annealed_result.descent.encoding.strings
        ]


class TestSchemaVersioning:
    def test_unknown_version_rejected(self, independent_result):
        data = result_to_dict(independent_result)
        data["result_format_version"] = 99
        with pytest.raises(ValueError):
            result_from_dict(data)

    def test_missing_version_rejected(self, independent_result):
        data = result_to_dict(independent_result)
        del data["result_format_version"]
        with pytest.raises(ValueError):
            result_from_dict(data)

    def test_invalid_encoding_caught_when_validating(self, independent_result):
        data = result_to_dict(independent_result)
        # break anticommutation: duplicate the first string everywhere
        first = data["encoding"]["majorana_strings"][0]
        data["encoding"]["majorana_strings"] = [first] * len(
            data["encoding"]["majorana_strings"]
        )
        with pytest.raises(ValueError):
            result_from_dict(data, validate=True)

"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro import chaos
from repro.core import FermihedralConfig, SolverBudget
from repro.paulis import PauliString
from repro.sat.preprocess import clear_memo

def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running fuzz/battery tests for the nightly lane "
        "(deselect with '-m \"not slow\"'; also gated on REPRO_SLOW_TESTS)",
    )


#: Strategy: a Pauli label of bounded length.
pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=6)


@st.composite
def pauli_strings(draw, min_qubits: int = 1, max_qubits: int = 6) -> PauliString:
    label = draw(
        st.text(alphabet="IXYZ", min_size=min_qubits, max_size=max_qubits)
    )
    return PauliString.from_label(label)


@st.composite
def pauli_string_pairs(draw, min_qubits: int = 1, max_qubits: int = 6):
    """Two strings of equal length."""
    length = draw(st.integers(min_qubits, max_qubits))
    labels = st.text(alphabet="IXYZ", min_size=length, max_size=length)
    return PauliString.from_label(draw(labels)), PauliString.from_label(draw(labels))


@pytest.fixture(autouse=True)
def cold_preprocess_memo():
    """Every test starts with an empty preprocess memo, so a test that
    patches or counts preprocessing (or forks workers that inherit the
    memo) sees the same cold runs whatever ran before it."""
    clear_memo()


@pytest.fixture(scope="session")
def fast_config() -> FermihedralConfig:
    """Full SAT config with budgets suitable for unit tests."""
    return FermihedralConfig(budget=SolverBudget(max_conflicts=200_000, time_budget_s=60))


@pytest.fixture(scope="session")
def fast_noalg_config() -> FermihedralConfig:
    return FermihedralConfig(
        algebraic_independence=False,
        budget=SolverBudget(max_conflicts=200_000, time_budget_s=60),
    )


@pytest.fixture
def arm_chaos():
    """Arm ``REPRO_CHAOS`` for one test: ``arm_chaos("job.run@drill=always")``.

    Arming drops the parsed engine so the next fault point re-reads the
    variable.  Teardown restores the environment first and then drops the
    engine again, so no armed rule outlives the test.
    """
    with pytest.MonkeyPatch.context() as patch:
        def _arm(spec: str) -> None:
            patch.setenv(chaos.CHAOS_ENV, spec)
            chaos.reset()

        yield _arm
    chaos.reset()

"""Pauli algebra substrate: strings, sums and GF(2) symplectic structure."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.paulis.matrices": ("MATRICES", "pauli_string_matrix", "pauli_sum_matrix"),
    "repro.paulis.operators": ("LABELS", "PRODUCTS", "operators_anticommute"),
    "repro.paulis.strings": ("PauliString",),
    "repro.paulis.symplectic": (
        "are_algebraically_independent", "dependent_subset", "gf2_rank",
        "pairwise_anticommuting", "strings_rank",
    ),
    "repro.paulis.terms": ("PauliSum", "sum_of"),
})

__all__ = [
    "LABELS",
    "MATRICES",
    "PRODUCTS",
    "PauliString",
    "PauliSum",
    "are_algebraically_independent",
    "dependent_subset",
    "gf2_rank",
    "operators_anticommute",
    "pairwise_anticommuting",
    "pauli_string_matrix",
    "pauli_sum_matrix",
    "strings_rank",
    "sum_of",
]

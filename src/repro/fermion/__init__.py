"""Fermionic-system substrate: operators, Majorana algebra, model Hamiltonians."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fermion.hamiltonians": ("FermionicHamiltonian",),
    "repro.fermion.hubbard": ("hubbard_chain", "hubbard_from_graph", "hubbard_lattice"),
    "repro.fermion.majorana": (
        "MajoranaPolynomial", "canonicalize_indices", "fermion_to_majorana",
        "hamiltonian_monomials",
    ),
    "repro.fermion.molecules": (
        "h2_hamiltonian", "molecular_hamiltonian", "random_molecular_hamiltonian",
    ),
    "repro.fermion.operators": ("FermionOperator",),
    "repro.fermion.spinless": ("tv_chain", "tv_model_from_graph"),
    "repro.fermion.syk": ("syk_hamiltonian",),
})

__all__ = [
    "FermionOperator",
    "FermionicHamiltonian",
    "MajoranaPolynomial",
    "canonicalize_indices",
    "fermion_to_majorana",
    "h2_hamiltonian",
    "hamiltonian_monomials",
    "hubbard_chain",
    "hubbard_from_graph",
    "hubbard_lattice",
    "molecular_hamiltonian",
    "random_molecular_hamiltonian",
    "syk_hamiltonian",
    "tv_chain",
    "tv_model_from_graph",
]

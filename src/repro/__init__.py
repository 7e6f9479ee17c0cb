"""Fermihedral reproduction: SAT-optimal fermion-to-qubit encoding compiler.

Reproduces "Fermihedral: On the Optimal Compilation for Fermion-to-Qubit
Encoding" (ASPLOS 2024).  The public API re-exports the pieces a typical
workflow needs; each is imported on first use (see :mod:`repro._lazy`), so
``import repro`` alone loads no subsystem and no third-party dependency:

    >>> from repro import FermihedralCompiler, h2_hamiltonian, bravyi_kitaev
    >>> h2 = h2_hamiltonian()
    >>> result = FermihedralCompiler(num_modes=4).full_sat(h2)   # doctest: +SKIP
    >>> result.weight <= bravyi_kitaev(4).hamiltonian_pauli_weight(h2)  # doctest: +SKIP
    True

See DESIGN.md for the subsystem inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.circuits": (
        "QuantumCircuit", "optimize_circuit", "pauli_evolution_circuit",
        "trotter_circuit",
    ),
    "repro.core": (
        "AnnealingSchedule", "CompilationResult", "FermihedralCompiler",
        "FermihedralConfig", "SolverBudget", "anneal_pairing", "descend",
        "solve_full_sat", "solve_hamiltonian_independent",
        "solve_sat_annealing", "verify_encoding",
    ),
    "repro.encodings": (
        "MajoranaEncoding", "bravyi_kitaev", "jordan_wigner",
        "parity_encoding", "ternary_tree",
    ),
    "repro.fermion": (
        "FermionOperator", "FermionicHamiltonian", "MajoranaPolynomial",
        "h2_hamiltonian", "hubbard_chain", "hubbard_lattice",
        "molecular_hamiltonian", "random_molecular_hamiltonian",
        "syk_hamiltonian",
    ),
    "repro.hardware": (
        "DeviceTopology", "HardwareCost", "HardwareCostModel",
        "connectivity_weights", "get_device", "list_devices", "route_circuit",
    ),
    "repro.parallel": ("ProcessBatchExecutor",),
    "repro.paulis": ("PauliString", "PauliSum"),
    "repro.service": ("CompilationService", "ServiceClient"),
    "repro.store": (
        "BatchCompiler", "CompilationCache", "CompileJob", "compilation_key",
        "default_cache_dir",
    ),
    "repro.telemetry": ("MetricsRegistry", "Telemetry", "Tracer"),
    "repro.simulator": (
        "NoiseModel", "diagonalize", "expectation_pauli_sum",
        "ionq_aria1_noise", "run_circuit", "simulate_noisy_energy",
        "zero_state",
    ),
})

# Single source of truth for the package version: setup.py parses this
# constant, so installed-distribution metadata can never disagree with the
# code actually running (a stale `pip install` next to a PYTHONPATH=src
# checkout would otherwise win).
__version__ = "1.4.0"

__all__ = [
    "AnnealingSchedule",
    "BatchCompiler",
    "CompilationCache",
    "CompilationResult",
    "CompilationService",
    "CompileJob",
    "DeviceTopology",
    "FermihedralCompiler",
    "FermihedralConfig",
    "FermionOperator",
    "FermionicHamiltonian",
    "HardwareCost",
    "HardwareCostModel",
    "MajoranaEncoding",
    "MajoranaPolynomial",
    "MetricsRegistry",
    "NoiseModel",
    "PauliString",
    "PauliSum",
    "ProcessBatchExecutor",
    "QuantumCircuit",
    "ServiceClient",
    "SolverBudget",
    "Telemetry",
    "Tracer",
    "anneal_pairing",
    "bravyi_kitaev",
    "compilation_key",
    "connectivity_weights",
    "default_cache_dir",
    "descend",
    "diagonalize",
    "get_device",
    "list_devices",
    "route_circuit",
    "expectation_pauli_sum",
    "h2_hamiltonian",
    "hubbard_chain",
    "hubbard_lattice",
    "ionq_aria1_noise",
    "jordan_wigner",
    "molecular_hamiltonian",
    "optimize_circuit",
    "parity_encoding",
    "pauli_evolution_circuit",
    "random_molecular_hamiltonian",
    "run_circuit",
    "simulate_noisy_energy",
    "solve_full_sat",
    "solve_hamiltonian_independent",
    "solve_sat_annealing",
    "syk_hamiltonian",
    "ternary_tree",
    "trotter_circuit",
    "verify_encoding",
    "zero_state",
]

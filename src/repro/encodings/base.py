"""The universal fermion-to-qubit encoding container.

Every encoding in this package — Jordan-Wigner, Bravyi-Kitaev, parity,
ternary tree, and the SAT-derived optimal encodings — is fully described by
an ordered tuple of ``2N`` Pauli strings: the Majorana operator images.
Mode ``j`` pairs ``a_j = (m_{2j} + i·m_{2j+1}) / 2`` (Eq. 12 of the paper),
so the tuple order *is* the pairing; the simulated-annealing optimizer
permutes it.
"""

from __future__ import annotations

from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.fermion.majorana import MajoranaPolynomial, fermion_to_majorana
from repro.fermion.operators import FermionOperator
from repro.paulis.strings import PauliString
from repro.paulis.symplectic import dependent_subset
from repro.paulis.terms import PauliSum


class EncodingError(ValueError):
    """Raised when a set of Majorana strings violates an encoding constraint."""


class MajoranaEncoding:
    """A fermion-to-qubit encoding given by its Majorana Pauli strings.

    Args:
        strings: the ``2N`` Majorana images ``m_0 .. m_{2N-1}``; all must
            share one qubit count, which becomes :attr:`num_qubits`.
        name: label used in benchmark tables.
        validate: verify the anticommutation and algebraic-independence
            constraints at construction (cheap: ``O(N^2)`` pairs).
    """

    def __init__(self, strings, name: str = "custom", validate: bool = True):
        self.strings: tuple[PauliString, ...] = tuple(strings)
        self.name = name
        if not self.strings:
            raise EncodingError("an encoding needs at least one Majorana string")
        if len(self.strings) % 2 != 0:
            raise EncodingError("Majorana strings must come in pairs (2 per mode)")
        self.num_modes = len(self.strings) // 2
        self.num_qubits = self.strings[0].num_qubits
        if any(string.num_qubits != self.num_qubits for string in self.strings):
            raise EncodingError("all Majorana strings must have equal length")
        self._monomial_cache: dict[tuple[int, ...], tuple[PauliString, complex]] = {}
        if validate:
            self.validate()

    # -- constraint checking ---------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`EncodingError` unless the constraints of Section 3.1 hold."""
        for i, left in enumerate(self.strings):
            if left.is_identity:
                raise EncodingError(f"m_{i} is the identity string")
            for j in range(i + 1, len(self.strings)):
                if not left.anticommutes_with(self.strings[j]):
                    raise EncodingError(f"m_{i} and m_{j} do not anticommute")
        dependency = dependent_subset(self.strings)
        if dependency is not None:
            raise EncodingError(f"algebraic dependence among Majoranas {dependency}")

    def preserves_vacuum(self, tolerance: float = 1e-9) -> bool:
        """True when every ``a_j`` annihilates ``|0...0>`` (Eq. 6).

        Uses the closed form ``P|0..0> = i^{#Y(P)} |x_mask(P)>``: the image
        of the zero state under each annihilation operator is accumulated
        per computational basis vector and must vanish identically.
        """
        for mode in range(self.num_modes):
            amplitudes: dict[int, complex] = {}
            for string, coefficient in self.annihilation(mode).items():
                phase = 1j ** ((string.x_mask & string.z_mask).bit_count() % 4)
                basis = string.x_mask
                amplitudes[basis] = amplitudes.get(basis, 0j) + coefficient * phase
            if any(abs(amplitude) > tolerance for amplitude in amplitudes.values()):
                return False
        return True

    # -- operator images -----------------------------------------------------------

    def majorana(self, index: int) -> PauliString:
        """The Pauli image of Majorana operator ``m_index``."""
        return self.strings[index]

    def annihilation(self, mode: int) -> PauliSum:
        """``a_mode = (m_{2mode} + i·m_{2mode+1}) / 2``."""
        return PauliSum(
            self.num_qubits,
            {self.strings[2 * mode]: 0.5, self.strings[2 * mode + 1]: 0.5j},
        )

    def creation(self, mode: int) -> PauliSum:
        """``a†_mode = (m_{2mode} − i·m_{2mode+1}) / 2``."""
        return PauliSum(
            self.num_qubits,
            {self.strings[2 * mode]: 0.5, self.strings[2 * mode + 1]: -0.5j},
        )

    def monomial_image(self, monomial: tuple[int, ...]) -> tuple[PauliString, complex]:
        """Image of a canonical Majorana monomial: ``(string, phase)``."""
        cached = self._monomial_cache.get(monomial)
        if cached is not None:
            return cached
        string = PauliString.identity(self.num_qubits)
        phase = 1.0 + 0j
        for index in monomial:
            string, step_phase = string.multiply(self.strings[index])
            phase *= step_phase
        self._monomial_cache[monomial] = (string, phase)
        return string, phase

    # -- Hamiltonian encoding ---------------------------------------------------------

    def encode_majorana(self, polynomial: MajoranaPolynomial) -> PauliSum:
        """Map a Majorana polynomial to its qubit-space :class:`PauliSum`."""
        if polynomial.max_index >= len(self.strings):
            raise EncodingError(
                f"polynomial uses Majorana {polynomial.max_index} but the encoding "
                f"has only {len(self.strings)} strings"
            )
        result = PauliSum(self.num_qubits)
        for monomial, coefficient in polynomial.items():
            string, phase = self.monomial_image(monomial)
            result = result + PauliSum.from_term(string, coefficient * phase)
        return result

    def encode(self, target) -> PauliSum:
        """Encode a Hamiltonian-like object into qubit space.

        Accepts :class:`FermionicHamiltonian` (constant included),
        :class:`FermionOperator`, or :class:`MajoranaPolynomial`.
        """
        if isinstance(target, FermionicHamiltonian):
            encoded = self.encode_majorana(target.majorana)
            if target.constant:
                encoded = encoded + PauliSum.identity(self.num_qubits, target.constant)
            return encoded
        if isinstance(target, FermionOperator):
            return self.encode_majorana(fermion_to_majorana(target))
        if isinstance(target, MajoranaPolynomial):
            return self.encode_majorana(target)
        raise TypeError(f"cannot encode object of type {type(target).__name__}")

    # -- weight metrics -------------------------------------------------------------------

    @property
    def total_majorana_weight(self) -> int:
        """Hamiltonian-independent objective: summed weight of all strings."""
        return sum(string.weight for string in self.strings)

    def hamiltonian_pauli_weight(self, hamiltonian) -> int:
        """Hamiltonian-dependent metric: total weight of the encoded operator."""
        return self.encode(hamiltonian).without_identity().total_weight

    # -- pairing manipulation (for annealing) -------------------------------------------------

    def with_mode_order(self, order) -> "MajoranaEncoding":
        """Re-pair Majorana couples onto modes in a new order.

        ``order[j]`` names which original mode supplies the Majorana pair of
        new mode ``j``.  Pairs travel together, so anticommutativity, algebraic
        independence and vacuum preservation are unaffected (Section 4.2).
        """
        order = list(order)
        if sorted(order) != list(range(self.num_modes)):
            raise EncodingError("order must be a permutation of the modes")
        reordered = []
        for source in order:
            reordered.append(self.strings[2 * source])
            reordered.append(self.strings[2 * source + 1])
        return MajoranaEncoding(reordered, name=self.name, validate=False)

    def swap_modes(self, first: int, second: int) -> "MajoranaEncoding":
        """Exchange the Majorana pairs of two modes (the annealing move)."""
        order = list(range(self.num_modes))
        order[first], order[second] = order[second], order[first]
        return self.with_mode_order(order)

    def with_qubit_order(self, order) -> "MajoranaEncoding":
        """Relabel the qubits: ``order[j]`` names which original qubit
        becomes qubit ``j``.

        Every string is permuted the same way, so anticommutation, vacuum
        preservation and every string and monomial weight are unchanged.
        """
        order = list(order)
        if sorted(order) != list(range(self.num_qubits)):
            raise EncodingError("order must be a permutation of the qubits")
        relabelled = [
            PauliString.from_operators(self.num_qubits, {
                target: string.operator(source)
                for target, source in enumerate(order)
                if string.operator(source) != "I"
            })
            for string in self.strings
        ]
        return MajoranaEncoding(relabelled, name=self.name, validate=False)

    def __repr__(self) -> str:
        labels = ", ".join(string.label() for string in self.strings)
        return f"MajoranaEncoding({self.name!r}, [{labels}])"

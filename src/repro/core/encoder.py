"""SAT encoding of the fermion-to-qubit compilation problem (Section 3).

Each of the ``2N`` Majorana strings gets two Boolean variables per qubit,
following the paper's operator encoding (Eq. 7):

    ``I = (0,0)   X = (0,1)   Y = (1,0)   Z = (1,1)``

Under this encoding Pauli multiplication is bitwise XOR (Eq. 8), single-
operator anticommutativity reduces to ``(bit1 ∧ bit2') ⊕ (bit1' ∧ bit2)``
(equivalent to the paper's Table-2 DNF, Eq. 9, but two ANDs and one XOR),
and the weight of an operator is ``bit1 ∨ bit2``.

The encoder emits, on demand:

* anticommutativity for every string pair (Section 3.3);
* algebraic independence over the whole power set, with a Gray-code walk so
  each successive subset reuses the previous XOR accumulator at the cost of
  one fresh gadget column (Section 3.4).  The descent never emits it:
  pairwise anticommutation already implies independence, so a dependent
  model has probability exactly 0 (not Section 4.1's ``4^-N``).  It stays
  as the paper's construction, for instance-size tables and as a test
  oracle;
* vacuum-state preservation via X/Y pair witnesses (Section 3.5);
* Hamiltonian-independent or Hamiltonian-dependent weight bounds through a
  totalizer cardinality ladder (Sections 3.6/3.7);
* column-lex symmetry breaking: the qubit columns of each class of
  equal objective weight in non-decreasing lexicographic order (beyond
  the paper).
"""

from __future__ import annotations

from repro.encodings.base import MajoranaEncoding
from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.paulis.strings import PauliString
from repro.sat.cnf import CnfFormula
from repro.sat.totalizer import add_totalizer_ladder
from repro.sat.tseitin import encode_and, encode_or, encode_xor, encode_xor_many

#: Operator truth table of the paper's Eq. 7: label -> (bit1, bit2).
OPERATOR_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 0), "Z": (1, 1)}
_BITS_TO_OPERATOR = {bits: label for label, bits in OPERATOR_BITS.items()}


def add_lex_leq(formula: CnfFormula, left: list[int], right: list[int]) -> None:
    """Assert ``left <=lex right`` over two equal-length variable lists,
    most significant bit first.

    A prefix-equality chain: one fresh variable ``eq`` per bit after the
    first ("the vectors agree on every earlier bit").  While they agree,
    ``(-eq, -x, y)`` forbids ``x > y`` at this bit, and
    ``(-eq, x, y, eq')`` / ``(-eq, -x, -y, eq')`` carry the agreement on
    past an equal bit.  The empty prefix always agrees, so the first
    bit's clauses drop ``-eq``.
    """
    equal = None
    for index, (x, y) in enumerate(zip(left, right)):
        guard = () if equal is None else (-equal,)
        formula.add_clause(guard + (-x, y))
        if index == len(left) - 1:
            break
        following = formula.new_variable()
        formula.add_clause(guard + (x, y, following))
        formula.add_clause(guard + (-x, -y, following))
        equal = following


class FermihedralEncoder:
    """Builds the CNF instance for an ``N``-mode encoding search.

    The constraint methods mutate :attr:`formula`; decoding maps a SAT
    model back to a :class:`MajoranaEncoding`.
    """

    def __init__(self, num_modes: int):
        if num_modes < 1:
            raise ValueError("num_modes must be positive")
        self.num_modes = num_modes
        self.num_strings = 2 * num_modes
        self.formula = CnfFormula()
        # bit1[k][i], bit2[k][i] for string k, qubit i.
        self.bit1 = [
            [self.formula.new_variable(f"b1[{k}][{i}]") for i in range(num_modes)]
            for k in range(self.num_strings)
        ]
        self.bit2 = [
            [self.formula.new_variable(f"b2[{k}][{i}]") for i in range(num_modes)]
            for k in range(self.num_strings)
        ]
        self._weight_indicators: list[int] | None = None

    # -- variable geometry ---------------------------------------------------

    def string_variables(self, string_index: int) -> list[int]:
        """All 2N Boolean variables of one Majorana string (bit-sequence order)."""
        variables = []
        for qubit in range(self.num_modes):
            variables.append(self.bit1[string_index][qubit])
            variables.append(self.bit2[string_index][qubit])
        return variables

    def all_string_variables(self) -> list[int]:
        return [v for k in range(self.num_strings) for v in self.string_variables(k)]

    # -- constraints (Section 3.3) ------------------------------------------------

    def _acomm_literal(self, left: int, right: int, qubit: int) -> int:
        """Tseitin literal for operator-level anticommutativity at ``qubit``."""
        formula = self.formula
        forward = encode_and(formula, self.bit1[left][qubit], self.bit2[right][qubit])
        backward = encode_and(formula, self.bit1[right][qubit], self.bit2[left][qubit])
        return encode_xor(formula, forward, backward)

    def add_anticommutativity(self) -> None:
        """Every pair of Majorana strings anticommutes: odd number of
        anticommuting positions, i.e. XOR of the per-qubit literals is 1."""
        for left in range(self.num_strings):
            for right in range(left + 1, self.num_strings):
                literals = [
                    self._acomm_literal(left, right, qubit)
                    for qubit in range(self.num_modes)
                ]
                self.formula.add_unit(encode_xor_many(self.formula, literals))

    # -- constraints (Section 3.4) ----------------------------------------------------

    def add_algebraic_independence(self) -> None:
        """No subset of strings multiplies to identity.

        Walks all non-empty subsets in binary-reflected Gray-code order,
        so each step XORs exactly one string into the running bit-sequence
        accumulator (2N fresh gadget variables per step) and asserts the
        accumulator is not all-zero (one clause per subset).

        Exponential: ``2^{2N} - 1`` subsets.  This is the paper's "Full
        SAT" configuration and is only feasible for small ``N``.
        """
        formula = self.formula
        width = 2 * self.num_modes  # bit-sequence length of one string
        total_subsets = 1 << self.num_strings
        accumulator = list(self.string_variables(0))  # Gray code 1 = {string 0}
        formula.add_clause(accumulator)
        for counter in range(2, total_subsets):
            flipped = (counter & -counter).bit_length() - 1
            flipped_bits = self.string_variables(flipped)
            accumulator = [
                encode_xor(formula, accumulator[j], flipped_bits[j])
                for j in range(width)
            ]
            formula.add_clause(accumulator)

    # -- constraints (Section 3.5) -------------------------------------------------------

    def _xy_pair_literal(self, even_string: int, odd_string: int, qubit: int) -> int:
        """Literal for "even string has X and odd string has Y at ``qubit``".

        ``X = (0,1)``, ``Y = (1,0)`` — a four-literal AND gadget.
        """
        formula = self.formula
        gate = formula.new_variable()
        conjuncts = (
            -self.bit1[even_string][qubit],
            self.bit2[even_string][qubit],
            self.bit1[odd_string][qubit],
            -self.bit2[odd_string][qubit],
        )
        for literal in conjuncts:
            formula.add_clause((-gate, literal))
        formula.add_clause((gate,) + tuple(-literal for literal in conjuncts))
        return gate

    def add_vacuum_preservation(self) -> None:
        """Each Majorana pair carries an X/Y witness on some qubit, making
        ``a_j |0..0> = 0`` (the paper's sufficient condition, Eq. 11)."""
        for mode in range(self.num_modes):
            even_string, odd_string = 2 * mode, 2 * mode + 1
            witnesses = [
                self._xy_pair_literal(even_string, odd_string, qubit)
                for qubit in range(self.num_modes)
            ]
            self.formula.add_clause(witnesses)

    def add_exact_vacuum_preservation(self) -> None:
        """Necessary-and-sufficient vacuum constraint (beyond the paper).

        The paper's X/Y witness (Section 3.5) is only a sufficient condition
        "in a simple case": a SAT model can satisfy the witness clause yet
        fail ``a_j|0..0> = 0``.  The exact condition follows from
        ``m|0..0> = i^{#Y(m)} |x_mask(m)>``: for each pair,

        1. equal flip masks — at every qubit, ``op ∈ {X,Y}`` must agree
           between the even and odd strings (``bit1 ⊕ bit2`` equal); and
        2. ``#Y(even) ≡ #Y(odd) + 3 (mod 4)``, so the two images of
           ``|0..0>`` cancel in ``(m_even + i·m_odd)/2``.

        The Y-counts run through mod-4 Tseitin counters (``O(N)`` gadgets
        per string).
        """
        formula = self.formula
        for mode in range(self.num_modes):
            even_string, odd_string = 2 * mode, 2 * mode + 1
            for qubit in range(self.num_modes):
                flip_bits = [
                    self.bit1[even_string][qubit], self.bit2[even_string][qubit],
                    self.bit1[odd_string][qubit], self.bit2[odd_string][qubit],
                ]
                formula.add_unit(-encode_xor_many(formula, flip_bits))
            even_count = self._y_count_mod4(even_string)
            odd_count = self._y_count_mod4(odd_string)
            self._assert_count_offset(even_count, odd_count, offset=3)

    def _y_indicator(self, string_index: int, qubit: int) -> int:
        """Literal for "operator at (string, qubit) is Y" (``Y = (1, 0)``)."""
        formula = self.formula
        gate = formula.new_variable()
        bit1 = self.bit1[string_index][qubit]
        bit2 = self.bit2[string_index][qubit]
        formula.add_clause((-gate, bit1))
        formula.add_clause((-gate, -bit2))
        formula.add_clause((gate, -bit1, bit2))
        return gate

    def _y_count_mod4(self, string_index: int) -> tuple[int, int]:
        """Two literals ``(high, low)`` for the string's Y-count mod 4."""
        formula = self.formula
        false_literal = formula.new_variable()
        formula.add_unit(-false_literal)
        high, low = false_literal, false_literal
        for qubit in range(self.num_modes):
            indicator = self._y_indicator(string_index, qubit)
            carry = encode_and(formula, low, indicator)
            low = encode_xor(formula, low, indicator)
            high = encode_xor(formula, high, carry)
        return high, low

    def _assert_count_offset(
        self, even_count: tuple[int, int], odd_count: tuple[int, int], offset: int
    ) -> None:
        """Constrain ``even ≡ odd + offset (mod 4)`` over 2-bit counters."""
        formula = self.formula
        cases = []
        for odd_value in range(4):
            even_value = (odd_value + offset) % 4
            pattern = (
                (even_count[0], (even_value >> 1) & 1),
                (even_count[1], even_value & 1),
                (odd_count[0], (odd_value >> 1) & 1),
                (odd_count[1], odd_value & 1),
            )
            gate = formula.new_variable()
            literals = [
                (variable if bit else -variable) for variable, bit in pattern
            ]
            for literal in literals:
                formula.add_clause((-gate, literal))
            formula.add_clause((gate,) + tuple(-literal for literal in literals))
            cases.append(gate)
        formula.add_clause(cases)

    # -- symmetry breaking ---------------------------------------------------------------

    def column_variables(self, qubit: int) -> list[int]:
        """The ``4N`` bits of one qubit column, most significant first:
        ``bit1[k][qubit], bit2[k][qubit]`` for ``k = 0 .. 2N-1``."""
        variables = []
        for string_index in range(self.num_strings):
            variables.append(self.bit1[string_index][qubit])
            variables.append(self.bit2[string_index][qubit])
        return variables

    def add_column_lex(self, classes: "list[list[int]] | None" = None) -> None:
        """Order the qubit columns within each weight class:
        ``col(a) <=lex col(b)`` for consecutive members ``a < b`` of every
        class, so the search sees one labelling of each class's qubits
        instead of up to ``|class|!``.

        ``classes`` partitions the qubits (see :func:`weight_classes`);
        ``None`` is one class of every qubit, whose comparators order
        each adjacent pair ``q, q+1``.  Each comparator is
        :func:`add_lex_leq` over the two columns.

        Sound whenever every class holds qubits of equal weight in the
        objective.  Permuting the qubits inside a class then preserves
        pairwise anticommutation, the X/Y vacuum witness (it only needs
        *some* qubit), flip-mask equality and Y counts of the exact
        vacuum constraint, the weight of every Majorana string and of
        every monomial image on every qubit, and so the weighted
        objective.  Sorting each class's columns of a model therefore
        gives a model of the same weight that satisfies the comparators,
        so UNSAT at bound ``b`` with them is UNSAT without them: every
        optimality proof still certifies the unrestricted bound.  A
        comparator across two classes is not sound: the sorted model
        moves columns onto qubits of another weight.
        """
        if classes is None:
            classes = [list(range(self.num_modes))]
        for members in classes:
            for left, right in zip(members, members[1:]):
                add_lex_leq(self.formula, self.column_variables(left),
                            self.column_variables(right))

    # -- objectives (Sections 3.6 / 3.7) ---------------------------------------------------

    def _operator_weight_literal(self, string_index: int, qubit: int) -> int:
        """Literal for "operator at (string, qubit) is non-identity"."""
        return encode_or(
            self.formula, self.bit1[string_index][qubit], self.bit2[string_index][qubit]
        )

    def majorana_weight_indicators(self) -> list[int]:
        """One literal per (string, qubit) — the H-independent objective terms."""
        if self._weight_indicators is None:
            self._weight_indicators = [
                self._operator_weight_literal(string_index, qubit)
                for string_index in range(self.num_strings)
                for qubit in range(self.num_modes)
            ]
        return self._weight_indicators

    def hamiltonian_weight_indicators(
        self, hamiltonian: FermionicHamiltonian
    ) -> list[int]:
        """One literal per (Hamiltonian monomial, qubit).

        Each distinct Majorana monomial of the Hamiltonian expansion is a
        product of solution strings; its bit sequence is the XOR of theirs
        (Eq. 14 territory).  The literal says the product operator at a
        given qubit is non-identity.
        """
        if hamiltonian.num_modes != self.num_modes:
            raise ValueError(
                f"Hamiltonian has {hamiltonian.num_modes} modes, encoder {self.num_modes}"
            )
        formula = self.formula
        indicators: list[int] = []
        for monomial in hamiltonian.monomials:
            for qubit in range(self.num_modes):
                if len(monomial) == 1:
                    index = monomial[0]
                    bit1 = self.bit1[index][qubit]
                    bit2 = self.bit2[index][qubit]
                else:
                    bit1 = encode_xor_many(
                        formula, [self.bit1[index][qubit] for index in monomial]
                    )
                    bit2 = encode_xor_many(
                        formula, [self.bit2[index][qubit] for index in monomial]
                    )
                indicators.append(encode_or(formula, bit1, bit2))
        return indicators

    def weight_ladder(
        self,
        indicators: list[int],
        max_bound: int,
        qubit_weights: "tuple[int, ...] | None" = None,
    ) -> list[int]:
        """Assumption-activated weight bounds for the descent.

        Builds one shared totalizer (:func:`repro.sat.totalizer.
        add_totalizer_ladder`) over the objective indicators and returns
        ``selectors`` where assuming ``selectors[b]`` enforces objective
        ``<= b``, for every ``b in 0..max_bound``.  The descent ladder
        then re-solves a single CNF with a different one-literal
        assumption per rung instead of rebuilding the instance; a fixed
        bound is ``formula.add_unit(selectors[b])``.

        Uniform (``qubit_weights is None``): objective
        ``sum(indicators)``.  Connectivity-weighted: indicator ``i``
        belongs to qubit ``i % num_modes`` (both indicator families
        enumerate qubits innermost), and the objective becomes
        ``sum(qubit_weights[i % N] * indicators[i])`` — the
        hardware-aware objective of :mod:`repro.hardware.cost`.
        """
        if qubit_weights is None:
            literals = list(indicators)
        else:
            if len(qubit_weights) != self.num_modes:
                raise ValueError(
                    f"qubit_weights has {len(qubit_weights)} entries, encoder has "
                    f"{self.num_modes} qubits"
                )
            if len(indicators) % self.num_modes != 0:
                raise ValueError(
                    "indicator count is not a multiple of the qubit count"
                )
            if any(weight < 0 for weight in qubit_weights):
                raise ValueError("qubit_weights must be non-negative")
            # Weighted counting = each literal repeated ``weight`` times in
            # the shared counter.
            literals = [
                literal
                for index, literal in enumerate(indicators)
                for _ in range(qubit_weights[index % self.num_modes])
            ]
        return add_totalizer_ladder(self.formula, literals, max_bound)

    # -- model decoding -------------------------------------------------------------------------

    def decode(self, model: dict[int, bool], validate: bool = False) -> MajoranaEncoding:
        """Map a SAT model to the corresponding :class:`MajoranaEncoding`."""
        strings = []
        for string_index in range(self.num_strings):
            operators = {}
            for qubit in range(self.num_modes):
                bits = (
                    int(model[self.bit1[string_index][qubit]]),
                    int(model[self.bit2[string_index][qubit]]),
                )
                operators[qubit] = _BITS_TO_OPERATOR[bits]
            strings.append(PauliString.from_operators(self.num_modes, operators))
        return MajoranaEncoding(strings, name="fermihedral", validate=validate)

    def encoding_assignment(self, encoding: MajoranaEncoding) -> dict[int, bool]:
        """Phase hints mapping a known encoding onto this encoder's variables
        (used to warm-start descent from the Bravyi-Kitaev baseline)."""
        if encoding.num_modes != self.num_modes:
            raise ValueError("encoding mode count does not match encoder")
        hints: dict[int, bool] = {}
        for string_index, string in enumerate(encoding.strings):
            for qubit in range(self.num_modes):
                bit1, bit2 = OPERATOR_BITS[string.operator(qubit)]
                hints[self.bit1[string_index][qubit]] = bool(bit1)
                hints[self.bit2[string_index][qubit]] = bool(bit2)
        return hints


def weight_classes(
    qubit_weights: "tuple[int, ...] | None", num_qubits: int
) -> list[list[int]]:
    """The qubits grouped by objective weight: each class lists its
    qubits in ascending order, and the classes come in the order of
    their first qubit.  ``None`` (every qubit weighs the same) is one
    class."""
    if qubit_weights is None:
        return [list(range(num_qubits))]
    classes: dict[int, list[int]] = {}
    for qubit, weight in enumerate(qubit_weights):
        classes.setdefault(weight, []).append(qubit)
    return list(classes.values())


def column_lex_order(
    encoding: MajoranaEncoding, classes: "list[list[int]] | None" = None
) -> list[int]:
    """The qubit order that sorts an encoding's columns within each class
    the way :meth:`FermihedralEncoder.add_column_lex` requires:
    ``order[j]`` is the qubit that becomes qubit ``j`` (see
    :meth:`MajoranaEncoding.with_qubit_order`).  Each class's qubits
    trade columns only among themselves; ``None`` is one class of every
    qubit."""

    def column(qubit: int) -> tuple[int, ...]:
        return tuple(
            bit
            for string in encoding.strings
            for bit in OPERATOR_BITS[string.operator(qubit)]
        )

    if classes is None:
        classes = [list(range(encoding.num_qubits))]
    order = list(range(encoding.num_qubits))
    for members in classes:
        for position, qubit in zip(members, sorted(members, key=column)):
            order[position] = qubit
    return order

"""Hardware-aware cost models: routed gate counts instead of raw weight.

Abstract Pauli weight is a device-independent proxy; what a machine
actually pays is two-qubit gates *after routing*.  This module scores
operators and encodings by that real cost:

* :class:`HardwareCostModel` compiles a :class:`~repro.paulis.terms.PauliSum`
  the same way the benchmarks do (Paulihedral-lite term ordering, Figure-3
  synthesis, peephole), but hardware-aware: evolution targets are chosen
  as the medoid of each string's support under the device metric, CNOT
  ladders are ordered nearest-first, the initial layout comes from
  :func:`~repro.hardware.routing.greedy_layout`, and the result is routed
  with SWAP insertion.  The score is the routed CNOT count and depth.
* :func:`connectivity_weights` distills a topology into per-qubit integer
  cost multipliers for the SAT objective: a qubit far from the others (in
  average hop count) makes every Pauli it hosts more expensive to route,
  so the connectivity-weighted descent
  (``FermihedralConfig.qubit_weights``) steers support onto the
  well-connected patch.  On an all-to-all device every qubit gets the
  same multiplier and the objective degenerates to plain Pauli weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.optimizer import optimize_circuit
from repro.circuits.pauli_evolution import pauli_evolution_circuit
from repro.circuits.scheduling import greedy_cancellation_order
from repro.encodings.base import MajoranaEncoding
from repro.hardware.routing import (
    RoutingResult,
    greedy_layout,
    interaction_weights,
    route_circuit,
)
from repro.hardware.topology import DeviceTopology, TopologyError
from repro.paulis.terms import PauliSum


@dataclass(frozen=True)
class HardwareCost:
    """Routed cost of one compiled operator on one device.

    ``two_qubit_count`` is the headline number: CNOTs after SWAP
    insertion, with each SWAP counted as its three-CNOT decomposition.
    The ``logical_*`` fields record the pre-routing circuit so the
    routing overhead is visible.
    """

    device: str
    num_physical_qubits: int
    two_qubit_count: int
    swap_count: int
    depth: int
    single_qubit_count: int
    logical_two_qubit_count: int
    logical_depth: int

    @property
    def routing_overhead(self) -> int:
        """Two-qubit gates added by the topology."""
        return self.two_qubit_count - self.logical_two_qubit_count

    def as_dict(self) -> dict:
        """Plain-data form (used by the result-schema serializer)."""
        return {
            "device": self.device,
            "num_physical_qubits": self.num_physical_qubits,
            "two_qubit_count": self.two_qubit_count,
            "swap_count": self.swap_count,
            "depth": self.depth,
            "single_qubit_count": self.single_qubit_count,
            "logical_two_qubit_count": self.logical_two_qubit_count,
            "logical_depth": self.logical_depth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareCost":
        return cls(
            device=data["device"],
            num_physical_qubits=data["num_physical_qubits"],
            two_qubit_count=data["two_qubit_count"],
            swap_count=data["swap_count"],
            depth=data["depth"],
            single_qubit_count=data["single_qubit_count"],
            logical_two_qubit_count=data["logical_two_qubit_count"],
            logical_depth=data["logical_depth"],
        )

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Comparison order: routed CNOTs, then depth, then single-qubit gates."""
        return (self.two_qubit_count, self.depth, self.single_qubit_count)


def connectivity_weights(
    topology: DeviceTopology,
    num_logical: int | None = None,
    scale: float = 2.0,
) -> tuple[int, ...]:
    """Per-qubit integer cost multipliers for the SAT objective.

    Logical qubit ``i`` (placed on physical qubit ``i``) gets
    ``1 + round(scale * (mean_distance_i - min_j mean_distance_j))`` —
    its *relative* remoteness among the logical qubits, so the
    best-connected qubit always costs 1.  Only relative differences steer
    the descent, and keeping the integers small matters: the weighted
    cardinality constraint repeats each indicator ``weight`` times, so
    inflated multipliers inflate the SAT instance for no extra signal.
    On an all-to-all graph every weight is exactly 1 and the objective
    *is* plain Pauli weight; on sparse graphs, peripheral qubits cost
    more than central ones, concentrating support where routing is cheap.
    """
    count = topology.num_qubits if num_logical is None else num_logical
    if count < 1:
        raise TopologyError("need at least one logical qubit")
    if count > topology.num_qubits:
        raise TopologyError(
            f"{count} logical qubits exceed the device's {topology.num_qubits}"
        )
    if count == 1:
        return (1,)
    mean_distances = [
        sum(topology.distance(i, j) for j in range(count) if j != i) / (count - 1)
        for i in range(count)
    ]
    floor = min(mean_distances)
    # round half-up (not banker's) so symmetric layouts stay symmetric
    return tuple(
        1 + int(scale * (mean - floor) + 0.5) for mean in mean_distances
    )


class HardwareCostModel:
    """Scores operators and encodings by routed two-qubit gate count.

    Args:
        topology: the target device.
        evolution_time: Trotter evolution time used when synthesizing
            (affects only rotation angles, never gate counts).
        optimize: run the peephole pass on the logical circuit before
            routing (matches the benchmark compilation pipeline).
    """

    def __init__(
        self,
        topology: DeviceTopology,
        evolution_time: float = 1.0,
        optimize: bool = True,
    ):
        self.topology = topology
        self.evolution_time = evolution_time
        self.optimize = optimize

    # -- synthesis --------------------------------------------------------

    def _evolution_block(
        self, string, angle: float, layout: Sequence[int]
    ) -> QuantumCircuit:
        """Figure-3 block with device-aware target and ladder order.

        The rotation target is the support medoid under the device metric
        (given the initial layout) and ladder controls enter nearest-first,
        so the non-restoring router drags far controls across already-
        shortened paths.
        """
        support = string.support
        distance = self.topology.distance

        def spread(candidate: int) -> int:
            return sum(
                distance(layout[candidate], layout[other]) for other in support
            )

        target = min(support, key=lambda q: (spread(q), -q))
        ladder = sorted(
            (q for q in support if q != target),
            key=lambda q: (distance(layout[q], layout[target]), q),
        )
        return pauli_evolution_circuit(string, angle, target=target, ladder=ladder)

    def logical_circuit(
        self, operator: PauliSum, layout: Sequence[int]
    ) -> QuantumCircuit:
        """Hardware-aware synthesis of the full operator (pre-routing)."""
        circuit = QuantumCircuit(operator.num_qubits)
        for string in greedy_cancellation_order(operator):
            angle = operator.coefficient(string).real * self.evolution_time
            circuit.extend(self._evolution_block(string, angle, layout).gates)
        if self.optimize:
            circuit = optimize_circuit(circuit)
        return circuit

    def routed_circuit(
        self,
        operator: PauliSum,
        layout: "Sequence[int] | None" = None,
    ) -> RoutingResult:
        """Synthesize and route an operator; the cost model's full pipeline.

        The layout defaults to the greedy interaction-aware placement
        computed from a first synthesis pass; pass one explicitly to pin a
        placement.
        """
        if operator.num_qubits > self.topology.num_qubits:
            raise TopologyError(
                f"operator acts on {operator.num_qubits} qubits, device "
                f"{self.topology.name!r} has {self.topology.num_qubits}"
            )
        if layout is None:
            # Bootstrap: synthesize once with the identity layout to read
            # off the interaction graph, then place greedily.
            probe = self.logical_circuit(operator, list(range(operator.num_qubits)))
            layout = greedy_layout(
                interaction_weights(probe), operator.num_qubits, self.topology
            )
        circuit = self.logical_circuit(operator, layout)
        return route_circuit(circuit, self.topology, initial_layout=layout)

    # -- scoring ----------------------------------------------------------

    def cost_of_operator(self, operator: PauliSum) -> HardwareCost:
        """Routed cost of one Pauli-sum evolution."""
        routed = self.routed_circuit(operator)
        return HardwareCost(
            device=self.topology.name,
            num_physical_qubits=self.topology.num_qubits,
            two_qubit_count=routed.two_qubit_count,
            swap_count=routed.swap_count,
            depth=routed.depth,
            single_qubit_count=routed.circuit.single_qubit_count,
            logical_two_qubit_count=routed.logical_two_qubit_count,
            logical_depth=routed.logical_depth,
        )

    def _operator_for(
        self, encoding: MajoranaEncoding, hamiltonian=None
    ) -> PauliSum:
        if hamiltonian is not None:
            return encoding.encode(hamiltonian).without_identity().hermitian_part()
        # Hamiltonian-independent proxy: one evolution block per Majorana
        # string (all real unit coefficients — hermitian by construction).
        return PauliSum(
            encoding.num_qubits, {string: 1.0 for string in encoding.strings}
        )

    def cost_of_encoding(
        self, encoding: MajoranaEncoding, hamiltonian=None
    ) -> HardwareCost:
        """Routed cost of an encoding.

        With a Hamiltonian: the cost of one Trotter step of its encoded
        image.  Without: the cost of evolving each Majorana string once —
        the Hamiltonian-independent analogue of summed weight.
        """
        return self.cost_of_operator(self._operator_for(encoding, hamiltonian))

    def best_qubit_order(
        self,
        encoding: MajoranaEncoding,
        hamiltonian=None,
        classes: "list[list[int]] | None" = None,
    ) -> tuple[MajoranaEncoding, HardwareCost]:
        """Relabel an encoding's qubits for this device: a first-improvement
        pairwise-swap search over qubit orders.

        Starts from the identity order and sweeps every pair of qubits in
        the same class of ``classes`` (a partition of the qubits; ``None``
        is one class of every qubit), keeping a swap when it lowers
        :attr:`HardwareCost.sort_key` (ties keep the current order), until
        a whole sweep improves nothing.  A swap inside a class of equal
        objective weight changes no weight, so only the routed cost moves;
        the result is never worse than the identity order.  Polynomial per
        sweep, where an exhaustive search would score ``N!`` orders.
        """
        order = list(range(encoding.num_qubits))
        label = [0] * len(order)
        for index, members in enumerate(classes or ()):
            for qubit in members:
                label[qubit] = index
        best = (encoding, self.cost_of_encoding(encoding, hamiltonian))
        improved = True
        while improved:
            improved = False
            for first in range(len(order)):
                for second in range(first + 1, len(order)):
                    if label[first] != label[second]:
                        continue
                    trial = list(order)
                    trial[first], trial[second] = trial[second], trial[first]
                    candidate = encoding.with_qubit_order(trial)
                    cost = self.cost_of_encoding(candidate, hamiltonian)
                    if cost.sort_key < best[1].sort_key:
                        order, best, improved = trial, (candidate, cost), True
        return best

    def best_encoding(
        self,
        candidates: Iterable[MajoranaEncoding],
        hamiltonian=None,
    ) -> tuple[MajoranaEncoding, HardwareCost]:
        """The candidate with the lowest routed cost (ties keep the
        earliest candidate, so callers can put a preferred encoding first)."""
        best: tuple[MajoranaEncoding, HardwareCost] | None = None
        for candidate in candidates:
            cost = self.cost_of_encoding(candidate, hamiltonian)
            if best is None or cost.sort_key < best[1].sort_key:
                best = (candidate, cost)
        if best is None:
            raise ValueError("best_encoding needs at least one candidate")
        return best

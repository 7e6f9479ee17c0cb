"""Spinless-fermion lattice models.

The t-V model (spinless fermions with nearest-neighbour repulsion):

    ``H = -t Σ_<ij> (a†_i a_j + a†_j a_i) + V Σ_<ij> n_i n_j``

is the minimal interacting fermion chain — one mode per site, so an
``N``-site lattice needs only ``N`` qubits.  It exercises encodings on a
different interaction structure than the spinful Hubbard model (density-
density terms across *bonds* rather than on-site), and its small mode
count makes it the cheapest family for Full SAT studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.fermion.hubbard import chain_bonds, graph_bonds
from repro.fermion.operators import FermionOperator

if TYPE_CHECKING:
    import networkx as nx

DEFAULT_TUNNELING = 1.0
DEFAULT_REPULSION = 1.5


def _tv_from_bonds(
    num_sites: int,
    bonds: list[tuple[int, int]],
    tunneling: float,
    repulsion: float,
    name: str,
) -> FermionicHamiltonian:
    operator = FermionOperator.zero()
    for i, j in bonds:
        hop = FermionOperator.from_monomial(((i, True), (j, False)), -tunneling)
        operator = operator + hop + hop.hermitian_conjugate()
        operator = operator + (
            FermionOperator.number(i) * FermionOperator.number(j)
        ) * repulsion
    return FermionicHamiltonian.from_fermion_operator(
        name, operator, num_modes=num_sites
    )


def tv_model_from_graph(
    graph: nx.Graph,
    tunneling: float = DEFAULT_TUNNELING,
    repulsion: float = DEFAULT_REPULSION,
    name: str = "tv-model",
) -> FermionicHamiltonian:
    """Spinless t-V Hamiltonian on an arbitrary site graph."""
    num_sites, bonds = graph_bonds(graph)
    return _tv_from_bonds(num_sites, bonds, tunneling, repulsion, name)


def tv_chain(
    num_sites: int,
    tunneling: float = DEFAULT_TUNNELING,
    repulsion: float = DEFAULT_REPULSION,
    periodic: bool = True,
) -> FermionicHamiltonian:
    """1-D spinless t-V chain (periodic by default)."""
    if num_sites < 2:
        raise ValueError("a chain needs at least two sites")
    label = f"tv-1d-{num_sites}{'p' if periodic else ''}"
    return _tv_from_bonds(
        num_sites, chain_bonds(num_sites, periodic), tunneling, repulsion, label
    )

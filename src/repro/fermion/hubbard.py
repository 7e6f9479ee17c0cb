"""Fermi-Hubbard model Hamiltonians on periodic lattices.

    ``H = -t Σ_{<i,j>,σ} (a†_iσ a_jσ + a†_jσ a_iσ) + U Σ_i n_i↑ n_i↓``

Every model is built from a list of bonds between numbered sites, so the
3×1 chain and 2×2 square lattice of the paper's evaluation — and arbitrary
``rows × cols`` variants — share one code path.  Chains list their bonds
directly (:func:`chain_bonds`); 2-D lattices come from :mod:`networkx`
periodic grid graphs, imported only where one is built, so compiling a
chain never loads networkx.  Mode convention is interleaved spin:
``mode = 2 * site + spin``, so an ``S``-site lattice uses ``N = 2S``
fermionic modes (qubits).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.fermion.operators import FermionOperator

if TYPE_CHECKING:
    import networkx as nx

DEFAULT_TUNNELING = 1.0
DEFAULT_INTERACTION = 2.0


def _mode(site: int, spin: int) -> int:
    return 2 * site + spin


def chain_bonds(num_sites: int, periodic: bool) -> list[tuple[int, int]]:
    """Bonds of a 1-D chain as sorted ``(i, j)`` pairs with ``i < j``.

    These are the edges, in the order, that networkx's ``cycle_graph`` and
    ``path_graph`` yield, so a chain built from them equals the model built
    from the graph term for term.  A 2-site ring has a single bond.
    """
    bonds = [(site, site + 1) for site in range(num_sites - 1)]
    if periodic and num_sites > 2:
        bonds.append((0, num_sites - 1))
    return sorted(bonds)


def graph_bonds(graph: nx.Graph) -> tuple[int, list[tuple[int, int]]]:
    """``(site count, bonds)`` of a site graph, sites numbered in sorted order."""
    index = {site: position for position, site in enumerate(sorted(graph.nodes()))}
    return len(index), [(index[left], index[right]) for left, right in graph.edges()]


def _hubbard_from_bonds(
    num_sites: int,
    bonds: list[tuple[int, int]],
    tunneling: float,
    interaction: float,
    name: str,
) -> FermionicHamiltonian:
    operator = FermionOperator.zero()

    for i, j in bonds:
        for spin in (0, 1):
            hop = FermionOperator.from_monomial(
                ((_mode(i, spin), True), (_mode(j, spin), False)), -tunneling
            )
            operator = operator + hop + hop.hermitian_conjugate()

    for i in range(num_sites):
        operator = operator + (
            FermionOperator.number(_mode(i, 0)) * FermionOperator.number(_mode(i, 1))
        ) * interaction

    return FermionicHamiltonian.from_fermion_operator(
        name, operator, num_modes=2 * num_sites
    )


def hubbard_from_graph(
    graph: nx.Graph,
    tunneling: float = DEFAULT_TUNNELING,
    interaction: float = DEFAULT_INTERACTION,
    name: str = "hubbard",
) -> FermionicHamiltonian:
    """Fermi-Hubbard Hamiltonian on an arbitrary site graph."""
    num_sites, bonds = graph_bonds(graph)
    return _hubbard_from_bonds(num_sites, bonds, tunneling, interaction, name)


def hubbard_chain(
    num_sites: int,
    tunneling: float = DEFAULT_TUNNELING,
    interaction: float = DEFAULT_INTERACTION,
    periodic: bool = True,
) -> FermionicHamiltonian:
    """1-D Fermi-Hubbard chain (periodic by default, as in the paper)."""
    if num_sites < 2:
        raise ValueError("a chain needs at least two sites")
    label = f"hubbard-1d-{num_sites}{'p' if periodic else ''}"
    return _hubbard_from_bonds(
        num_sites, chain_bonds(num_sites, periodic), tunneling, interaction, label
    )


def hubbard_lattice(
    rows: int,
    cols: int,
    tunneling: float = DEFAULT_TUNNELING,
    interaction: float = DEFAULT_INTERACTION,
    periodic: bool = True,
) -> FermionicHamiltonian:
    """``rows x cols`` square-lattice Fermi-Hubbard model.

    Degenerate shapes (a single row or column) reduce to the chain so that
    the paper's "3×1 Fermi-Hubbard" benchmark comes out as the periodic
    3-site chain (6 qubits); "2×2" is the 4-site plaquette (8 qubits).
    """
    if rows < 1 or cols < 1:
        raise ValueError("lattice dimensions must be positive")
    if rows == 1 or cols == 1:
        length = max(rows, cols)
        model = hubbard_chain(length, tunneling, interaction, periodic)
        return FermionicHamiltonian(
            name=f"hubbard-{rows}x{cols}{'p' if periodic else ''}",
            num_modes=model.num_modes,
            majorana=model.majorana,
            fermionic=model.fermionic,
            constant=model.constant,
        )
    import networkx as nx

    graph = nx.grid_2d_graph(rows, cols, periodic=periodic)
    label = f"hubbard-{rows}x{cols}{'p' if periodic else ''}"
    return hubbard_from_graph(graph, tunneling, interaction, name=label)

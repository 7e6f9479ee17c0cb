"""The 1-D chains build their bonds directly, without networkx; they must
equal the graph-built models exactly, term order included, since the
Majorana monomial order feeds annealing's pairing and the weight ladder."""

import networkx as nx
import pytest

from repro.fermion import (
    hubbard_chain,
    hubbard_from_graph,
    tv_chain,
    tv_model_from_graph,
)
from repro.fermion.hubbard import chain_bonds


def _graph(num_sites, periodic):
    return nx.cycle_graph(num_sites) if periodic else nx.path_graph(num_sites)


def _assert_identical(built, expected):
    assert built.name == expected.name
    assert built.num_modes == expected.num_modes
    assert list(built.majorana.items()) == list(expected.majorana.items())
    assert list(built.fermionic.items()) == list(expected.fermionic.items())
    assert built.constant == expected.constant


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("num_sites", range(2, 9))
class TestChainsMatchGraphs:
    def test_bonds_are_the_graph_edges_in_order(self, num_sites, periodic):
        edges = list(_graph(num_sites, periodic).edges())
        assert chain_bonds(num_sites, periodic) == edges

    def test_hubbard_chain(self, num_sites, periodic):
        chain = hubbard_chain(num_sites, periodic=periodic)
        graph_built = hubbard_from_graph(_graph(num_sites, periodic), name=chain.name)
        _assert_identical(chain, graph_built)

    def test_tv_chain(self, num_sites, periodic):
        chain = tv_chain(num_sites, periodic=periodic)
        graph_built = tv_model_from_graph(_graph(num_sites, periodic), name=chain.name)
        _assert_identical(chain, graph_built)

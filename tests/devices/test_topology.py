"""Tests for device topologies."""

import pickle

import networkx as nx
import pytest

from repro.devices import available_devices, get_device
from repro.devices.topology import (
    Topology,
    bowtie_topology,
    grid_topology,
    h_topology,
    heavy_hex_like_topology,
    ladder_topology,
    line_topology,
    plus_topology,
    t_topology,
)


def test_line_topology_structure():
    topo = line_topology(5)
    assert topo.n_qubits == 5
    assert len(topo.edges) == 4
    assert topo.are_adjacent(0, 1)
    assert not topo.are_adjacent(0, 2)
    assert topo.distance(0, 4) == 4


def test_t_topology_center_degree():
    topo = t_topology()
    assert topo.degree(1) == 3
    assert topo.is_connected()


def test_plus_topology_center():
    topo = plus_topology()
    assert topo.degree(2) == 4


def test_bowtie_topology_matches_yorktown():
    topo = bowtie_topology()
    assert topo.n_qubits == 5
    assert len(topo.edges) == 6
    assert topo.degree(2) == 4


def test_h_topology_bridge():
    topo = h_topology()
    assert topo.n_qubits == 7
    assert topo.is_connected()
    assert topo.degree(5) == 3


@pytest.mark.parametrize("n", [14, 15, 16])
def test_ladder_topology_connected(n):
    topo = ladder_topology(n)
    assert topo.n_qubits == n
    assert topo.is_connected()


@pytest.mark.parametrize("n", [16, 27, 65])
def test_heavy_hex_like_connected_and_sparse(n):
    topo = heavy_hex_like_topology(n)
    assert topo.n_qubits == n
    assert topo.is_connected()
    max_degree = max(topo.degree(q) for q in range(n))
    assert max_degree <= 4


def test_grid_topology_edges():
    topo = grid_topology(2, 3)
    assert topo.n_qubits == 6
    assert len(topo.edges) == 7


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Topology("bad", 2, ((0, 0),))
    with pytest.raises(ValueError):
        Topology("bad", 2, ((0, 5),))


def test_shortest_path_endpoints():
    topo = t_topology()
    path = topo.shortest_path(0, 4)
    assert path[0] == 0 and path[-1] == 4
    for a, b in zip(path, path[1:]):
        assert topo.are_adjacent(a, b)


def test_connected_subsets_are_connected():
    topo = t_topology()
    subsets = list(topo.connected_subsets(3))
    assert subsets
    graph = topo.graph()
    import networkx as nx

    for subset in subsets:
        assert nx.is_connected(graph.subgraph(subset))


def test_neighbors_sorted():
    topo = bowtie_topology()
    assert topo.neighbors(2) == [0, 1, 3, 4]


@pytest.mark.parametrize("name", available_devices())
def test_lookups_match_a_fresh_graph_for_every_pair(name):
    """The memoized lookups answer what the networkx calls on a fresh graph
    answer, for every ordered pair, asked twice and after a pickle round
    trip; a pickle carries the fields only, however many paths were asked."""
    topology = get_device(name).topology
    lean = len(pickle.dumps(topology))
    restored = pickle.loads(pickle.dumps(topology))
    fresh = topology.graph()
    for a in range(topology.n_qubits):
        for b in range(topology.n_qubits):
            path = nx.shortest_path(fresh, a, b)
            assert topology.shortest_path(a, b) == path
            assert topology.shortest_path(a, b) == path
            assert restored.shortest_path(a, b) == path
            assert topology.distance(a, b) == nx.shortest_path_length(fresh, a, b)
            assert topology.are_adjacent(a, b) == fresh.has_edge(a, b)
    assert len(pickle.dumps(topology)) == lean
    assert restored == topology and hash(restored) == hash(topology)


def test_paths_and_graphs_handed_out_are_copies():
    topo = h_topology()
    path = topo.shortest_path(0, 6)
    path.reverse()
    assert topo.shortest_path(0, 6)[0] == 0
    graph = topo.graph()
    graph.add_edge(0, 6)
    assert topo.distance(0, 6) == 4
    assert not topo.graph().has_edge(0, 6)

"""Differential tests: the coupling-map graph queries against networkx.

``CouplingMap`` answers its connectivity queries with plain BFS over its own
adjacency sets.  networkx is the test-only oracle here: every query is
compared with the networkx answer on every named device, a few parametric
ones, and seeded random couplings (disconnected ones included).
"""

import itertools
import random

import pytest

from repro.arch.coupling import CouplingError, CouplingMap
from repro.arch.devices import (
    available_architectures,
    fully_connected_architecture,
    get_architecture,
    grid_architecture,
    linear_architecture,
    ring_architecture,
)
from repro.arch.subsets import connected_subsets

nx = pytest.importorskip("networkx")


def _random_coupling(seed):
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 9)
    density = rng.choice([0.1, 0.25, 0.5, 0.9])
    edges = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for a, b in itertools.combinations(range(num_qubits), 2)
        if rng.random() < density
    ]
    return CouplingMap(num_qubits, edges, f"random{seed}")


COUPLINGS = (
    [get_architecture(name) for name in available_architectures()]
    + [
        linear_architecture(6),
        ring_architecture(7),
        grid_architecture(3, 3),
        fully_connected_architecture(4),
        CouplingMap(1, []),
        CouplingMap(4, [(0, 1), (2, 3)], "two-pieces"),
        CouplingMap(5, [(0, 1), (1, 2)], "isolated-qubits"),
    ]
    + [_random_coupling(seed) for seed in range(40)]
)


def _oracle_graph(coupling):
    graph = nx.Graph()
    graph.add_nodes_from(range(coupling.num_qubits))
    graph.add_edges_from(coupling.undirected_edges)
    return graph


def _qubit_selections(coupling, seed):
    """The whole device, the empty selection and seeded partial subsets."""
    rng = random.Random(seed)
    qubits = list(range(coupling.num_qubits))
    selections = [qubits, []]
    for _ in range(8):
        selections.append(rng.sample(qubits, rng.randint(1, len(qubits))))
    return selections


@pytest.fixture(params=COUPLINGS, ids=lambda coupling: coupling.name)
def coupling(request):
    return request.param


def test_is_connected(coupling):
    graph = _oracle_graph(coupling)
    assert coupling.is_connected() == nx.is_connected(graph)
    for qubits in _qubit_selections(coupling, seed=coupling.num_qubits):
        induced = graph.subgraph(qubits)
        expected = induced.number_of_nodes() > 0 and nx.is_connected(induced)
        assert coupling.is_connected(qubits) == expected, qubits


def test_components(coupling):
    graph = _oracle_graph(coupling)
    for qubits in _qubit_selections(coupling, seed=coupling.num_qubits + 1):
        expected = sorted(
            (set(c) for c in nx.connected_components(graph.subgraph(qubits))),
            key=min,
        )
        assert coupling.components(qubits) == expected, qubits


def test_distance_matrix(coupling):
    expected = {
        source: dict(lengths)
        for source, lengths in nx.all_pairs_shortest_path_length(_oracle_graph(coupling))
    }
    matrix = coupling.distance_matrix()
    assert matrix == expected
    assert list(matrix) == sorted(matrix)
    assert all(list(row) == sorted(row) for row in matrix.values())


def test_distance_and_shortest_path(coupling):
    graph = _oracle_graph(coupling)
    for a, b in itertools.product(range(coupling.num_qubits), repeat=2):
        if not nx.has_path(graph, a, b):
            with pytest.raises(CouplingError):
                coupling.distance(a, b)
            with pytest.raises(CouplingError):
                coupling.shortest_path(a, b)
            continue
        hops = nx.shortest_path_length(graph, a, b)
        assert coupling.distance(a, b) == hops
        path = coupling.shortest_path(a, b)
        assert len(path) == hops + 1
        assert path[0] == a and path[-1] == b
        assert all(coupling.connected(u, v) for u, v in zip(path, path[1:]))


def test_triangles(coupling):
    expected = sorted(
        tuple(sorted(clique))
        for clique in nx.enumerate_all_cliques(_oracle_graph(coupling))
        if len(clique) == 3
    )
    assert coupling.triangles() == expected


def test_neighbours_and_degree(coupling):
    graph = _oracle_graph(coupling)
    for qubit in range(coupling.num_qubits):
        assert coupling.neighbours(qubit) == sorted(graph[qubit])
        assert coupling.degree(qubit) == graph.degree(qubit)


def test_connected_and_cut_vertex_subsets(coupling):
    graph = _oracle_graph(coupling)
    for size in range(1, min(coupling.num_qubits, 5) + 1):
        connected = [
            subset
            for subset in itertools.combinations(range(coupling.num_qubits), size)
            if nx.is_connected(graph.subgraph(subset))
        ]
        assert connected_subsets(coupling, size) == connected


def test_out_of_range_queries():
    coupling = CouplingMap(3, [(0, 1)])
    with pytest.raises(CouplingError):
        coupling.distance(0, 3)
    with pytest.raises(CouplingError):
        coupling.shortest_path(-1, 0)
    assert coupling.neighbours(7) == []
    assert not coupling.is_connected([5, 6])
    assert coupling.is_connected([0, 1, 9])


def test_edges_added_after_construction_update_the_queries():
    coupling = CouplingMap(3, [(0, 1)])
    assert not coupling.is_connected()
    coupling.add_edge(2, 1)
    assert coupling.is_connected()
    assert coupling.neighbours(1) == [0, 2]
    assert coupling.distance(0, 2) == 2

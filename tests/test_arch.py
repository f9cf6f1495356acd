"""Unit tests for coupling maps, devices and subset enumeration."""

import pytest

from repro.arch.coupling import CouplingError, CouplingMap
from repro.arch.devices import (
    available_architectures,
    fully_connected_architecture,
    get_architecture,
    grid_architecture,
    ibm_qx2,
    ibm_qx4,
    ibm_qx5,
    ibm_tokyo,
    linear_architecture,
    ring_architecture,
)
from repro.arch.subsets import all_subsets, connected_subsets


class TestCouplingMap:
    def test_basic_queries(self):
        qx4 = ibm_qx4()
        assert qx4.num_qubits == 5
        assert qx4.allows_cnot(1, 0)
        assert not qx4.allows_cnot(0, 1)
        assert qx4.connected(0, 1)
        assert not qx4.connected(0, 3)
        assert qx4.neighbours(2) == [0, 1, 3, 4]
        assert qx4.degree(2) == 4

    def test_invalid_edges(self):
        with pytest.raises(CouplingError):
            CouplingMap(2, [(0, 0)])
        with pytest.raises(CouplingError):
            CouplingMap(2, [(0, 5)])
        with pytest.raises(CouplingError):
            CouplingMap(0, [])

    def test_distance_and_path(self):
        qx4 = ibm_qx4()
        assert qx4.distance(0, 0) == 0
        assert qx4.distance(0, 4) == 2
        path = qx4.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == 3

    def test_distance_matrix_is_symmetric(self):
        qx4 = ibm_qx4()
        matrix = qx4.distance_matrix()
        for a in range(5):
            for b in range(5):
                assert matrix[a][b] == matrix[b][a]

    def test_disconnected_distance_raises(self):
        coupling = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(CouplingError):
            coupling.distance(0, 3)
        assert not coupling.is_connected()

    def test_subgraph_reindexes(self):
        qx4 = ibm_qx4()
        sub = qx4.subgraph([2, 3, 4])
        assert sub.num_qubits == 3
        # Original edges (3,2), (3,4), (4,2) become (1,0), (1,2), (2,0).
        assert sub.allows_cnot(1, 0)
        assert sub.allows_cnot(1, 2)
        assert sub.allows_cnot(2, 0)
        assert sub.is_connected()

    def test_triangles_of_qx4(self):
        assert ibm_qx4().triangles() == [(0, 1, 2), (2, 3, 4)]

    def test_equality_and_hash(self):
        assert ibm_qx4() == ibm_qx4()
        assert hash(ibm_qx4()) == hash(ibm_qx4())
        assert ibm_qx4() != ibm_qx2()


class TestDevices:
    def test_qx4_matches_paper_coupling_map(self):
        # CM = {(p2,p1),(p3,p1),(p3,p2),(p4,p3),(p4,p5),(p5,p3)} (1-based).
        expected = {(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)}
        assert set(ibm_qx4().edges) == expected

    def test_device_sizes(self):
        assert ibm_qx2().num_qubits == 5
        assert ibm_qx5().num_qubits == 16
        assert ibm_tokyo().num_qubits == 20

    def test_all_devices_are_connected(self):
        for name in available_architectures():
            assert get_architecture(name).is_connected(), name

    def test_registry_lookup(self):
        assert get_architecture("QX4") == ibm_qx4()
        assert get_architecture("tenerife") == ibm_qx4()
        with pytest.raises(KeyError):
            get_architecture("nonexistent")

    def test_linear_architecture(self):
        line = linear_architecture(4)
        assert line.allows_cnot(0, 1)
        assert not line.allows_cnot(1, 0)
        bidirectional = linear_architecture(4, bidirectional=True)
        assert bidirectional.allows_cnot(1, 0)

    def test_ring_architecture(self):
        ring = ring_architecture(5)
        assert ring.connected(0, 4)
        with pytest.raises(ValueError):
            ring_architecture(2)

    def test_grid_architecture(self):
        grid = grid_architecture(2, 3)
        assert grid.num_qubits == 6
        assert grid.connected(0, 1)
        assert grid.connected(0, 3)
        assert not grid.connected(0, 4)

    def test_fully_connected(self):
        full = fully_connected_architecture(4)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert full.allows_cnot(a, b)


class TestSubsets:
    def test_all_subsets_count(self):
        assert len(all_subsets(ibm_qx4(), 4)) == 5
        with pytest.raises(ValueError):
            all_subsets(ibm_qx4(), 6)

    def test_connected_subsets_of_qx4_size4_contain_p3(self):
        # Example 9 of the paper: every connected 4-qubit subset contains
        # physical qubit p3 (index 2), reducing 5 candidates to 4.
        subsets = connected_subsets(ibm_qx4(), 4)
        assert len(subsets) == 4
        assert all(2 in subset for subset in subsets)

    def test_cut_vertex_filter_matches_connected_subsets(self):
        # Example 9's filter: keeping the 4-qubit subsets that contain every
        # cut vertex of QX4 (only p3, index 2) gives the connected subsets.
        qx4 = ibm_qx4()
        cut_vertices = [
            vertex for vertex in range(5)
            if len(qx4.components(set(range(5)) - {vertex})) > 1
        ]
        assert cut_vertices == [2]
        filtered = [
            subset for subset in all_subsets(qx4, 4)
            if set(cut_vertices) <= set(subset)
        ]
        assert filtered == connected_subsets(qx4, 4)

    def test_connected_subsets_size5_is_whole_device(self):
        assert connected_subsets(ibm_qx4(), 5) == [(0, 1, 2, 3, 4)]

    def test_connected_subsets_size1(self):
        assert len(connected_subsets(ibm_qx4(), 1)) == 5

    def test_disconnected_subsets_are_excluded(self):
        subsets = connected_subsets(ibm_qx4(), 2)
        assert (0, 3) not in subsets
        assert (0, 1) in subsets

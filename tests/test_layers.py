"""Unit tests for circuit layering and clustering utilities."""

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.layers import (
    disjoint_qubit_layers,
    front_layers,
    interaction_counts,
    interaction_graph,
    two_qubit_blocks,
)


def paper_fig1b_gates():
    """CNOT skeleton of Fig. 1b of the paper (the benchlib reading)."""
    from repro.benchlib.paper_example import paper_example_cnot_skeleton

    return paper_example_cnot_skeleton().cnot_gates()


class TestDisjointQubitLayers:
    def test_paper_example_clustering(self):
        # g1 and g2 act on disjoint qubits; every later gate shares a qubit
        # with its predecessor, matching Example 10 of the paper
        # (G' = {g3, g4, g5}, i.e. spots at gates 1-based 1, 3, 4, 5).
        layers = disjoint_qubit_layers(paper_fig1b_gates())
        assert layers == [[0, 1], [2], [3], [4]]

    def test_single_gate(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        assert disjoint_qubit_layers(circuit.cnot_gates()) == [[0]]

    def test_empty(self):
        assert disjoint_qubit_layers([]) == []

    def test_all_disjoint(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.cx(4, 5)
        assert disjoint_qubit_layers(circuit.cnot_gates()) == [[0, 1, 2]]


class TestFrontLayers:
    def test_respects_dependencies(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        layers = front_layers(circuit)
        assert layers == [[0], [1], [2]]

    def test_parallel_gates_share_layer(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.cx(1, 2)
        layers = front_layers(circuit)
        assert layers[0] == [0, 1]
        assert layers[1] == [2]

    def test_directives_are_skipped(self):
        circuit = QuantumCircuit(2)
        circuit.barrier()
        circuit.cx(0, 1)
        layers = front_layers(circuit)
        assert layers == [[1]]


class TestTwoQubitBlocks:
    def test_paper_example_triangle_blocks(self):
        # All five CNOTs of Fig. 1b touch only q2, q3, q4 except g2 and g5
        # which involve q1; with a 3-qubit bound the clustering yields two
        # blocks, matching Example 10 (permutation needed only before g2).
        blocks = two_qubit_blocks(paper_fig1b_gates(), max_qubits=3)
        assert blocks[0] == [0]
        assert len(blocks) == 2

    def test_block_bound_respected(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(3, 4)
        blocks = two_qubit_blocks(circuit.cnot_gates(), max_qubits=3)
        for block in blocks:
            support = set()
            for index in block:
                support |= set(circuit.cnot_gates()[index].qubits)
            assert len(support) <= 3

    def test_rejects_small_bound(self):
        import pytest

        with pytest.raises(ValueError):
            two_qubit_blocks([], max_qubits=1)


class TestInteractionGraph:
    def test_weights_count_two_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(1, 2)
        circuit.h(0)
        graph = interaction_graph(circuit)
        assert graph[0][1]["weight"] == 2
        assert graph[1][2]["weight"] == 1
        assert not graph.has_edge(0, 2)

    def test_counts_list_partners_in_first_interaction_order(self):
        circuit = QuantumCircuit(4)
        circuit.cx(1, 2)
        circuit.cx(0, 1)
        circuit.cx(2, 1)
        circuit.barrier(0, 1, 2)
        counts = interaction_counts(circuit)
        assert counts == {0: {1: 1}, 1: {2: 2, 0: 1}, 2: {1: 2}, 3: {}}
        assert list(counts[1]) == [2, 0]

    def test_nodes_cover_all_qubits(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        graph = interaction_graph(circuit)
        assert set(graph.nodes) == {0, 1, 2, 3}

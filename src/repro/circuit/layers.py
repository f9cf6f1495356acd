"""Circuit layering and clustering utilities.

The permutation-restriction strategies of the paper (Section 4.2) require
structural views of the CNOT skeleton of a circuit:

* *disjoint-qubit layers* — maximal runs of consecutive gates that act on
  pairwise disjoint qubit sets (called "layers" by heuristic mappers),
* *two-qubit blocks* — maximal runs of consecutive gates whose combined
  qubit support stays within a bounded number of qubits (used by the
  "qubit triangle" strategy with bound 3),
* the *interaction graph* of logical qubits (who ever shares a CNOT with
  whom), used by initial-layout heuristics as plain counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate

if TYPE_CHECKING:
    import networkx as nx


def disjoint_qubit_layers(gates: Sequence[Gate]) -> List[List[int]]:
    """Greedily cluster *gates* into runs acting on pairwise disjoint qubits.

    The clustering scans the gate list left to right and starts a new layer
    whenever the next gate shares a qubit with the current layer.  This is the
    clustering used by the *disjoint qubits* strategy (Section 4.2) and
    matches the "layers" of heuristic mappers.

    Args:
        gates: Gate sequence (usually the CNOT-only skeleton).

    Returns:
        A list of layers, each a list of gate indices into *gates*.
    """
    layers: List[List[int]] = []
    current: List[int] = []
    current_qubits: Set[int] = set()
    for index, gate in enumerate(gates):
        qubits = set(gate.qubits)
        if current and qubits & current_qubits:
            layers.append(current)
            current = [index]
            current_qubits = set(qubits)
        else:
            current.append(index)
            current_qubits |= qubits
    if current:
        layers.append(current)
    return layers


def front_layers(circuit: QuantumCircuit) -> List[List[int]]:
    """Partition the circuit into dependency layers (ASAP scheduling).

    Unlike :func:`disjoint_qubit_layers`, this respects the data dependencies
    of the full circuit: a gate is placed in the earliest layer after all
    gates it depends on.  Used by the SABRE-style heuristic baseline.

    Returns:
        A list of layers, each a list of gate indices into ``circuit.gates``.
    """
    level_of_qubit: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    layers: Dict[int, List[int]] = {}
    for index, gate in enumerate(circuit.gates):
        if gate.is_directive:
            continue
        level = max(level_of_qubit[q] for q in gate.qubits)
        layers.setdefault(level, []).append(index)
        for q in gate.qubits:
            level_of_qubit[q] = level + 1
    return [layers[level] for level in sorted(layers)]


def two_qubit_blocks(gates: Sequence[Gate], max_qubits: int = 3) -> List[List[int]]:
    """Cluster *gates* into maximal runs whose qubit support has bounded size.

    This is the clustering behind the *qubit triangle* strategy
    (Section 4.2): consecutive gates whose combined support fits into
    ``max_qubits`` qubits can be mapped onto a triangle of the coupling map
    without intermediate permutations.

    Args:
        gates: Gate sequence (usually the CNOT-only skeleton).
        max_qubits: Maximum size of the combined qubit support per block.

    Returns:
        A list of blocks, each a list of gate indices into *gates*.
    """
    if max_qubits < 2:
        raise ValueError("max_qubits must be at least 2")
    blocks: List[List[int]] = []
    current: List[int] = []
    support: Set[int] = set()
    for index, gate in enumerate(gates):
        qubits = set(gate.qubits)
        if current and len(support | qubits) > max_qubits:
            blocks.append(current)
            current = [index]
            support = set(qubits)
        else:
            current.append(index)
            support |= qubits
    if current:
        blocks.append(current)
    return blocks


def interaction_counts(circuit: QuantumCircuit) -> Dict[int, Dict[int, int]]:
    """Two-qubit gate counts per logical-qubit pair, as nested plain dicts.

    ``counts[a][b]`` (and ``counts[b][a]``) is the number of two-qubit gates
    acting on ``a`` and ``b``; every logical qubit has an entry, and each
    qubit's partners appear in the order of their first interaction.
    """
    counts: Dict[int, Dict[int, int]] = {q: {} for q in range(circuit.num_qubits)}
    for gate in circuit.gates:
        if gate.num_qubits != 2 or gate.is_directive:
            continue
        a, b = gate.qubits
        counts[a][b] = counts[a].get(b, 0) + 1
        counts[b][a] = counts[b].get(a, 0) + 1
    return counts


def interaction_graph(circuit: QuantumCircuit) -> nx.Graph:
    """Build the weighted logical-qubit interaction graph of *circuit*.

    Nodes are logical qubit indices; an edge ``(a, b)`` carries a ``weight``
    equal to the number of two-qubit gates acting on the pair.  This is the
    one helper that needs networkx (imported here, on first call); mapping
    code uses :func:`interaction_counts`.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    for a, partners in interaction_counts(circuit).items():
        for b, weight in partners.items():
            graph.add_edge(a, b, weight=weight)
    return graph


def gate_qubit_supports(gates: Sequence[Gate]) -> List[Tuple[int, ...]]:
    """Return the qubit tuple of every gate in *gates* (convenience helper)."""
    return [gate.qubits for gate in gates]


__all__ = [
    "disjoint_qubit_layers",
    "front_layers",
    "two_qubit_blocks",
    "interaction_counts",
    "interaction_graph",
    "gate_qubit_supports",
]

"""Initial-layout selection for the heuristic mappers.

A layout is a tuple ``layout[j] = i``: logical qubit ``j`` starts on physical
qubit ``i``.  Three selection policies are provided:

* trivial — logical ``j`` on physical ``j`` (what Qiskit 0.4 used by default),
* random — a uniformly random injective placement,
* greedy interaction — the most strongly interacting logical qubits are
  placed on the best connected physical qubits.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.layers import interaction_counts


def trivial_layout(circuit: QuantumCircuit, coupling: CouplingMap) -> Tuple[int, ...]:
    """Place logical qubit ``j`` on physical qubit ``j``."""
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit does not fit on the device")
    return tuple(range(circuit.num_qubits))


def random_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    rng: Optional[random.Random] = None,
) -> Tuple[int, ...]:
    """Place the logical qubits on a uniformly random injective set of physical qubits."""
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit does not fit on the device")
    rng = rng if rng is not None else random.Random()
    physical = list(range(coupling.num_qubits))
    rng.shuffle(physical)
    return tuple(physical[: circuit.num_qubits])


def greedy_interaction_layout(
    circuit: QuantumCircuit, coupling: CouplingMap
) -> Tuple[int, ...]:
    """Match strongly interacting logical qubits with well-connected physical qubits.

    Logical qubits are sorted by their total CNOT interaction count, physical
    qubits by degree; then each logical qubit is placed next to its already
    placed interaction partners when possible.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError("circuit does not fit on the device")
    interactions = interaction_counts(circuit)
    logical_order: List[int] = sorted(
        range(circuit.num_qubits),
        key=lambda q: -sum(interactions[q].values()),
    )
    physical_by_degree = sorted(
        range(coupling.num_qubits), key=lambda p: -coupling.degree(p)
    )
    placement: dict[int, int] = {}
    used: set[int] = set()
    for logical in logical_order:
        # Prefer a free physical qubit adjacent to already placed partners.
        candidate = None
        for partner in interactions[logical]:
            if partner in placement:
                for neighbour in coupling.neighbours(placement[partner]):
                    if neighbour not in used:
                        candidate = neighbour
                        break
            if candidate is not None:
                break
        if candidate is None:
            candidate = next(p for p in physical_by_degree if p not in used)
        placement[logical] = candidate
        used.add(candidate)
    return tuple(placement[j] for j in range(circuit.num_qubits))


__all__ = ["trivial_layout", "random_layout", "greedy_interaction_layout"]

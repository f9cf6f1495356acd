"""Enumeration of connected subsets of physical qubits.

Section 4.1 of the paper restricts the mapping to a subset of ``n`` of the
``m`` physical qubits.  Only *connected* subsets need to be considered: a
subset whose induced connectivity subgraph is disconnected can never host a
valid mapping of a connected interaction pattern (the paper's Example 9
prunes such subsets in O(n) time).
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.arch.coupling import CouplingMap


def all_subsets(coupling: CouplingMap, size: int) -> List[Tuple[int, ...]]:
    """All size-*size* subsets of physical qubits (connected or not).

    Raises:
        ValueError: If *size* is not between 1 and the device size.
    """
    if not 1 <= size <= coupling.num_qubits:
        raise ValueError(
            f"subset size {size} out of range for a {coupling.num_qubits}-qubit device"
        )
    return [
        tuple(combo)
        for combo in itertools.combinations(range(coupling.num_qubits), size)
    ]


def connected_subsets(coupling: CouplingMap, size: int) -> List[Tuple[int, ...]]:
    """All connected subsets of exactly *size* physical qubits, sorted.

    The subsets are found by filtering all :math:`\\binom{m}{n}` combinations
    by connectivity of the induced undirected subgraph.  For the devices this
    library targets (tens of qubits, subsets of at most a handful of qubits)
    this exhaustive filter is more than fast enough and obviously correct.
    Connectivity is checked with a plain set-based traversal; repeated
    enumerations for the same architecture are additionally memoised by
    :func:`repro.arch.cache.shared_connected_subsets`.

    Args:
        coupling: The device coupling map.
        size: Number of physical qubits per subset (the circuit's ``n``).

    Returns:
        Sorted list of sorted tuples of physical qubit indices whose induced
        undirected subgraph is connected.
    """
    adjacency = {
        qubit: set(coupling.neighbours(qubit))
        for qubit in range(coupling.num_qubits)
    }
    result = []
    for subset in all_subsets(coupling, size):
        members = set(subset)
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            for neighbour in adjacency[stack.pop()] & members:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        if len(seen) == size:
            result.append(subset)
    return result


__all__ = ["connected_subsets", "all_subsets"]

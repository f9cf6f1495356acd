"""Coupling maps of quantum architectures.

A coupling map (Definition 2 of the paper) is a set of *directed* pairs
``(control, target)`` of physical qubits on which a CNOT may be applied
natively.  A CNOT on a coupled pair in the *wrong* direction can be fixed by
surrounding it with four Hadamard gates (cost 4); a CNOT on an uncoupled pair
requires SWAP insertion (cost 7 per SWAP).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


class CouplingError(ValueError):
    """Raised on invalid coupling-map construction or queries."""


class CouplingMap:
    """A directed coupling map over ``num_qubits`` physical qubits.

    Args:
        num_qubits: Number of physical qubits ``m`` of the device.
        edges: Iterable of directed pairs ``(control, target)``.
        name: Human-readable architecture name.

    Example:
        >>> qx4 = CouplingMap(5, [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)], "qx4")
        >>> qx4.allows_cnot(1, 0)
        True
        >>> qx4.allows_cnot(0, 1)
        False
        >>> qx4.connected(0, 1)
        True
    """

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]],
                 name: str = "custom"):
        if num_qubits <= 0:
            raise CouplingError("a coupling map needs at least one physical qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._edges: Set[Tuple[int, int]] = set()
        self._adjacency: Dict[int, Set[int]] = {
            qubit: set() for qubit in range(self.num_qubits)
        }
        for control, target in edges:
            self.add_edge(control, target)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, control: int, target: int) -> None:
        """Add the directed pair ``(control, target)`` to the map."""
        if control == target:
            raise CouplingError("a qubit cannot be coupled to itself")
        self._check_qubit(control)
        self._check_qubit(target)
        self._edges.add((control, target))
        self._adjacency[control].add(target)
        self._adjacency[target].add(control)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise CouplingError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit device"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The directed edges of the coupling map."""
        return frozenset(self._edges)

    @property
    def undirected_edges(self) -> FrozenSet[Tuple[int, int]]:
        """The undirected edges (each as a sorted pair)."""
        return frozenset(tuple(sorted(edge)) for edge in self._edges)

    def allows_cnot(self, control: int, target: int) -> bool:
        """True when a CNOT with this control/target is natively allowed."""
        return (control, target) in self._edges

    def connected(self, qubit_a: int, qubit_b: int) -> bool:
        """True when the two qubits are coupled in either direction."""
        return (qubit_a, qubit_b) in self._edges or (qubit_b, qubit_a) in self._edges

    def neighbours(self, qubit: int) -> List[int]:
        """All qubits coupled to *qubit* (in either direction), sorted."""
        return sorted(self._adjacency.get(qubit, ()))

    def degree(self, qubit: int) -> int:
        """Number of distinct neighbours of *qubit*."""
        return len(self._adjacency.get(qubit, ()))

    # ------------------------------------------------------------------
    # Graph queries (undirected connectivity, plain BFS)
    # ------------------------------------------------------------------
    def _bfs_distances(self, source: int,
                       members: Optional[Set[int]] = None) -> Dict[int, int]:
        """Hop counts from *source* to every qubit it reaches (within *members*)."""
        distances = {source: 0}
        frontier = [source]
        adjacency = self._adjacency
        while frontier:
            next_frontier = []
            for node in frontier:
                hops = distances[node] + 1
                for neighbour in adjacency[node]:
                    if neighbour not in distances and (
                        members is None or neighbour in members
                    ):
                        distances[neighbour] = hops
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def components(self, qubits: Optional[Iterable[int]] = None) -> List[Set[int]]:
        """Connected components of the subgraph induced by *qubits*.

        Args:
            qubits: Physical qubits to restrict to; all qubits when omitted.
                Entries outside the device are ignored.

        Returns:
            One set of qubits per component, ordered by smallest member.
        """
        if qubits is None:
            members = set(self._adjacency)
        else:
            members = {q for q in qubits if q in self._adjacency}
        found = []
        while members:
            component = set(self._bfs_distances(min(members), members))
            members -= component
            found.append(component)
        return found

    def is_connected(self, qubits: Optional[Sequence[int]] = None) -> bool:
        """True when the (sub)graph induced by *qubits* is connected.

        Args:
            qubits: Physical qubits to restrict to; all qubits when omitted.
                Entries outside the device are ignored; an empty selection
                is not connected.
        """
        return len(self.components(qubits)) == 1

    def distance_matrix(self) -> Dict[int, Dict[int, int]]:
        """All-pairs shortest-path distances on the undirected connectivity graph.

        ``matrix[a][b]`` is the hop count from *a* to *b*; unreachable pairs
        are absent.  Both levels are keyed in ascending qubit order.
        """
        matrix = {}
        for source in range(self.num_qubits):
            distances = self._bfs_distances(source)
            matrix[source] = {qubit: distances[qubit] for qubit in sorted(distances)}
        return matrix

    def distance(self, qubit_a: int, qubit_b: int) -> int:
        """Shortest undirected path length between two physical qubits."""
        return self._distances_to(qubit_a, qubit_b)[qubit_a]

    def shortest_path(self, qubit_a: int, qubit_b: int) -> List[int]:
        """A shortest undirected path between two physical qubits.

        Each step moves to the smallest neighbour one hop closer to *qubit_b*.
        """
        to_goal = self._distances_to(qubit_a, qubit_b)
        path = [qubit_a]
        while path[-1] != qubit_b:
            remaining = to_goal[path[-1]] - 1
            path.append(min(
                q for q in self._adjacency[path[-1]] if to_goal.get(q) == remaining
            ))
        return path

    def _distances_to(self, qubit_a: int, qubit_b: int) -> Dict[int, int]:
        """Hop counts to *qubit_b*, checked to reach *qubit_a*."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        distances = self._bfs_distances(qubit_b)
        if qubit_a not in distances:
            raise CouplingError(f"qubits {qubit_a} and {qubit_b} are not connected")
        return distances

    def subgraph(self, qubits: Sequence[int], name: Optional[str] = None) -> "CouplingMap":
        """Return a coupling map restricted to *qubits*, re-indexed from zero.

        The i-th entry of *qubits* becomes physical qubit ``i`` of the new map.
        """
        index = {qubit: position for position, qubit in enumerate(qubits)}
        edges = [
            (index[control], index[target])
            for control, target in self._edges
            if control in index and target in index
        ]
        return CouplingMap(
            len(qubits), edges, name or f"{self.name}[{','.join(map(str, qubits))}]"
        )

    def triangles(self) -> List[Tuple[int, int, int]]:
        """All triangles (3-cliques) of the undirected connectivity graph, sorted.

        The *qubit triangle* strategy (Section 4.2) exploits the fact that a
        block of gates acting on at most three qubits can be mapped to such a
        triangle without further permutations.
        """
        adjacency = self._adjacency
        found = []
        for a in range(self.num_qubits):
            for b in sorted(q for q in adjacency[a] if q > a):
                for c in sorted(q for q in adjacency[a] & adjacency[b] if q > b):
                    found.append((a, b, c))
        return found

    def canonical_key(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Hashable key identifying the map by qubit count and edge set.

        The human-readable :attr:`name` is deliberately excluded so that two
        structurally identical maps (for example the same subset of the same
        device extracted twice) share one key.  Used by
        :mod:`repro.arch.cache` to memoise per-architecture artefacts.
        """
        return (self.num_qubits, tuple(sorted(self._edges)))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.num_qubits, frozenset(self._edges)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CouplingMap(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"edges={sorted(self._edges)})"
        )


__all__ = ["CouplingMap", "CouplingError"]

"""Permutations of physical-qubit states and their SWAP costs.

The cost function of the paper (Eq. 5) charges ``7 * swaps(pi)`` for applying
a permutation ``pi`` to the physical-qubit states before a gate, where
``swaps(pi)`` is the minimal number of SWAP operations — each acting on an
edge of the coupling map — that realises ``pi``.  The paper computes this
table once per architecture by exhaustive search; :class:`PermutationTable`
does the same via breadth-first search over the permutation group generated
by the coupling edges.

Conventions
-----------
A permutation is a tuple ``pi`` of length ``m`` with ``pi[i] = j`` meaning
"the state located at physical qubit ``i`` moves to physical qubit ``j``".
A mapping of ``n`` logical qubits is a tuple ``mapping`` of length ``n`` with
``mapping[j] = i`` meaning "logical qubit ``j`` sits on physical qubit ``i``"
(``-1`` marks an unmapped logical qubit; mappings used here are always total).
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap

Permutation = Tuple[int, ...]
Mapping = Tuple[int, ...]
SwapEdge = Tuple[int, int]


def identity_permutation(size: int) -> Permutation:
    """The identity permutation on *size* elements."""
    return tuple(range(size))


def all_permutations(size: int) -> Iterator[Permutation]:
    """Iterate over all permutations of ``range(size)``."""
    return iter(itertools.permutations(range(size)))


def compose_permutations(first: Permutation, second: Permutation) -> Permutation:
    """Return the permutation "apply *first*, then *second*"."""
    if len(first) != len(second):
        raise ValueError("cannot compose permutations of different sizes")
    return tuple(second[first[i]] for i in range(len(first)))


def invert_permutation(perm: Permutation) -> Permutation:
    """Return the inverse permutation."""
    inverse = [0] * len(perm)
    for source, destination in enumerate(perm):
        inverse[destination] = source
    return tuple(inverse)


def apply_permutation(perm: Permutation, mapping: Mapping) -> Mapping:
    """Apply *perm* to the physical positions of a logical-to-physical *mapping*.

    If logical qubit ``j`` sat on physical qubit ``mapping[j]``, it ends up on
    ``perm[mapping[j]]`` after the permutation.
    """
    return tuple(perm[position] for position in mapping)


def permutation_between(old: Mapping, new: Mapping, size: int) -> Permutation:
    """The unique full permutation turning *old* into *new* when ``n == m``.

    Raises:
        ValueError: If the mappings are not total (``n < m``); use
            :meth:`PermutationTable.transition_cost` in that case.
    """
    if len(old) != len(new):
        raise ValueError("mappings must have the same length")
    if len(old) != size:
        raise ValueError(
            "permutation_between requires total mappings (n == m); "
            "use PermutationTable.transition_cost for partial mappings"
        )
    perm = [-1] * size
    for logical in range(len(old)):
        perm[old[logical]] = new[logical]
    if -1 in perm:
        raise ValueError("mappings are not injective")
    return tuple(perm)


def swap_transposition(size: int, edge: SwapEdge) -> Permutation:
    """The transposition exchanging the two endpoints of *edge*."""
    a, b = edge
    perm = list(range(size))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def nearest_free_completion(
    fixed: Dict[int, int],
    size: int,
    distances: Dict[int, Dict[int, int]],
) -> Optional[Permutation]:
    """Complete a partial permutation by nearest-free-destination matching.

    *fixed* maps source positions to their forced destinations; every other
    source is matched greedily (in ascending source order) to the nearest
    still-free destination by coupling-graph distance, preferring staying put
    on ties.  The greedy matching is an upper-bound heuristic, not an optimal
    assignment — callers needing the minimum must still search.

    Returns:
        The completed permutation, or ``None`` when some free source has no
        reachable free destination (disconnected graph).
    """
    used = set(fixed.values())
    free_destinations = [i for i in range(size) if i not in used]
    perm: List[int] = [-1] * size
    for source, destination in fixed.items():
        perm[source] = destination
    for source in range(size):
        if perm[source] != -1:
            continue
        row = distances.get(source, {})
        best = None
        best_key = None
        for destination in free_destinations:
            hops = row.get(destination)
            if hops is None:
                continue
            # Prefer closer destinations; on ties prefer staying put, then
            # the smallest index — fully deterministic.
            key = (hops, 0 if destination == source else 1, destination)
            if best_key is None or key < best_key:
                best = destination
                best_key = key
        if best is None:
            return None
        perm[source] = best
        free_destinations.remove(best)
    return tuple(perm)


class PermutationTable:
    """Pre-computed ``swaps(pi)`` table for one coupling map.

    The table is built once (exhaustively, as in the paper) and then queried
    by the exact mappers both for full permutations and for transitions
    between (possibly partial) logical-to-physical mappings.

    One breadth-first search from the identity over the transpositions of
    the sorted undirected edges builds it.  Each reachable permutation is
    stored with one integer: its SWAP count above the index of the edge that
    first reached it.  Counts are then direct lookups, and a minimal SWAP
    sequence is rebuilt by undoing last edges back to the identity.

    Args:
        coupling: The architecture.
        max_qubits_exhaustive: Guard against accidentally enumerating the
            permutation group of a large device (``m!`` elements).
    """

    def __init__(self, coupling: CouplingMap, max_qubits_exhaustive: int = 8):
        if coupling.num_qubits > max_qubits_exhaustive:
            raise ValueError(
                f"refusing to enumerate {coupling.num_qubits}! permutations; "
                "restrict the architecture to a subset of physical qubits first"
            )
        self.coupling = coupling
        self.size = coupling.num_qubits
        self._edges: List[SwapEdge] = sorted(coupling.undirected_edges)
        # Enough low bits for every edge index; the SWAP count sits above.
        self._edge_bits = len(self._edges).bit_length()
        self._entries = self._search()
        self._distance_matrix: Optional[Dict[int, Dict[int, int]]] = None

    def _search(self) -> Dict[Permutation, int]:
        """Breadth-first search of the SWAP count of every reachable permutation.

        Frontiers are expanded in discovery order and each permutation over
        the edges in sorted order; the first discovery of a permutation
        fixes its entry.
        """
        transpositions = [swap_transposition(self.size, edge) for edge in self._edges]
        identity = identity_permutation(self.size)
        entries: Dict[Permutation, int] = {identity: 0}
        frontier = [identity]
        depth = 0
        while frontier:
            depth += 1
            steps = [
                (transposition, depth << self._edge_bits | index)
                for index, transposition in enumerate(transpositions)
            ]
            reached = []
            for perm in frontier:
                # ``compose_permutations(perm, t)`` for every transposition t.
                compose = itemgetter(*perm)
                for transposition, entry in steps:
                    successor = compose(transposition)
                    if successor not in entries:
                        entries[successor] = entry
                        reached.append(successor)
            frontier = reached
        return entries

    # ------------------------------------------------------------------
    # Full permutations
    # ------------------------------------------------------------------
    def reachable(self, perm: Permutation) -> bool:
        """True when *perm* can be realised by SWAPs on the coupling edges."""
        return tuple(perm) in self._entries

    def swaps(self, perm: Permutation) -> int:
        """Minimal number of SWAPs realising *perm* (the paper's ``swaps(pi)``).

        Raises:
            KeyError: If the permutation is not reachable (disconnected device).
        """
        return self._entries[tuple(perm)] >> self._edge_bits

    def swap_sequence(self, perm: Permutation) -> List[SwapEdge]:
        """One minimal sequence of SWAP edges realising *perm*.

        Raises:
            KeyError: If the permutation is not reachable (disconnected device).
        """
        perm = tuple(perm)
        entry = self._entries[perm]
        mask = (1 << self._edge_bits) - 1
        sequence: List[SwapEdge] = []
        for _ in range(entry >> self._edge_bits):
            a, b = edge = self._edges[entry & mask]
            sequence.append(edge)
            perm = tuple(b if p == a else a if p == b else p for p in perm)
            entry = self._entries[perm]
        sequence.reverse()
        return sequence

    def permutations(self) -> Iterator[Permutation]:
        """Iterate over all reachable permutations."""
        return iter(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Mapping transitions
    # ------------------------------------------------------------------
    def _fixed_assignments(self, old: Mapping, new: Mapping) -> Dict[int, int]:
        """The source-to-destination constraints implied by a mapping pair."""
        if len(old) != len(new):
            raise ValueError("mappings must have the same length")
        fixed: Dict[int, int] = {}
        for logical in range(len(old)):
            source, destination = old[logical], new[logical]
            if source in fixed and fixed[source] != destination:
                raise ValueError("old mapping is not injective")
            fixed[source] = destination
        return fixed

    def _distances(self) -> Dict[int, Dict[int, int]]:
        if self._distance_matrix is None:
            self._distance_matrix = self.coupling.distance_matrix()
        return self._distance_matrix

    def _transition_lower_bound(self, fixed: Dict[int, int]) -> int:
        """A reachable lower bound on the SWAPs of any consistent completion.

        Every SWAP moves two states one edge each, so the total graph
        distance still to travel drops by at most two per SWAP; a single
        state's remaining distance drops by at most one.  Fixed states must
        travel at least ``d(source, destination)``; free states at least the
        distance to their *nearest* free destination (a valid per-state
        minimum even though the joint assignment may not achieve all of
        them simultaneously).
        """
        distances = self._distances()
        used = set(fixed.values())
        free_destinations = [i for i in range(self.size) if i not in used]
        total = 0
        worst = 0
        for source in range(self.size):
            if source in fixed:
                hops = distances[source].get(fixed[source])
                if hops is None:
                    # Unreachable transition; the caller's scan will raise.
                    return 0
            else:
                reachable = [
                    distances[source][dest]
                    for dest in free_destinations
                    if dest in distances[source]
                ]
                if not reachable:
                    return 0
                hops = min(reachable)
            total += hops
            worst = max(worst, hops)
        return max(worst, (total + 1) // 2)

    def consistent_permutations(self, old: Mapping, new: Mapping) -> Iterator[Permutation]:
        """All full permutations ``pi`` with ``pi[old[j]] == new[j]`` for every ``j``.

        For total mappings there is exactly one; for partial mappings the
        unmapped physical qubits may be permuted freely among themselves.
        """
        fixed = self._fixed_assignments(old, new)
        free_sources = [i for i in range(self.size) if i not in fixed]
        used_destinations = set(fixed.values())
        free_destinations = [i for i in range(self.size) if i not in used_destinations]
        for completion in itertools.permutations(free_destinations):
            perm = [0] * self.size
            for source, destination in fixed.items():
                perm[source] = destination
            for source, destination in zip(free_sources, completion):
                perm[source] = destination
            yield tuple(perm)

    def best_transition(
        self, old: Mapping, new: Mapping
    ) -> Tuple[Permutation, int]:
        """The cheapest consistent completion and its SWAP count.

        Completing a partial transition is no longer a blind scan over
        ``free!`` completions: a nearest-free-destination matching is tried
        first and accepted outright when it meets the distance lower bound,
        and the exhaustive fallback stops as soon as any completion does.
        Minimality is unaffected — the scan only ever stops at a proven
        lower bound.
        """
        fixed = self._fixed_assignments(old, new)
        lower_bound = self._transition_lower_bound(fixed)
        best_perm: Optional[Permutation] = None
        best_count: Optional[int] = None
        candidate = nearest_free_completion(fixed, self.size, self._distances())
        if candidate is not None and candidate in self._entries:
            best_perm = candidate
            best_count = self._entries[candidate] >> self._edge_bits
            if best_count <= lower_bound:
                return best_perm, best_count
        for perm in self.consistent_permutations(old, new):
            if perm not in self._entries:
                continue
            count = self._entries[perm] >> self._edge_bits
            if best_count is None or count < best_count:
                best_count = count
                best_perm = perm
                if best_count <= lower_bound:
                    break
        if best_perm is None or best_count is None:
            raise ValueError("no permutation realises the requested transition")
        return best_perm, best_count

    def transition_cost(self, old: Mapping, new: Mapping) -> int:
        """Minimal number of SWAPs turning mapping *old* into mapping *new*."""
        return self.best_transition(old, new)[1]

    def transition_sequence(self, old: Mapping, new: Mapping) -> List[SwapEdge]:
        """A minimal SWAP-edge sequence turning mapping *old* into mapping *new*."""
        best_perm, _ = self.best_transition(old, new)
        return self.swap_sequence(best_perm)


#: Largest number of mapping states a :class:`MappingGraph` covers: five
#: logical qubits on an 8-qubit device.  The graph is small (1.7 MB of states
#: and neighbour lists at the limit); what the limit bounds is the DP's work,
#: one pass over every state and its SWAP edges per permutation spot.  The
#: subset sweep reads it to decide which families start at DP's schedule,
#: so moving it would change which families the sweep seeds.
MAX_MAPPING_STATES = 8 * 7 * 6 * 5 * 4


class MappingGraph:
    """The SWAP graph over the complete mappings of a device.

    The states are the mappings of *num_logical* logical qubits onto the
    physical qubits of *coupling*, in ``itertools.permutations(range(m), n)``
    order.  One SWAP on an undirected coupling edge exchanges whatever sits on
    its two endpoints, so it links two states.  A path of ``k`` SWAPs from
    ``old`` to ``new`` is a ``k``-SWAP permutation consistent with both, so
    the graph distance of a pair equals
    :meth:`PermutationTable.transition_cost`; pairs in different components
    of a disconnected device have no path.  SWAPs are involutions, so the
    graph is undirected.

    Args:
        coupling: The architecture.
        num_logical: Logical qubits per mapping.

    Raises:
        ValueError: If there are more than :data:`MAX_MAPPING_STATES` states.
    """

    def __init__(self, coupling: CouplingMap, num_logical: int):
        size = coupling.num_qubits
        count = math.perm(size, num_logical) if num_logical <= size else 0
        if count > MAX_MAPPING_STATES:
            raise ValueError(
                f"refusing to enumerate {count} mappings of {num_logical} logical "
                f"qubits on {size} physical qubits (limit {MAX_MAPPING_STATES})"
            )
        #: The mapping states, in ``itertools.permutations`` order.
        self.states: List[Mapping] = list(
            itertools.permutations(range(size), num_logical)
        )
        index = {state: position for position, state in enumerate(self.states)}
        edges = sorted(coupling.undirected_edges)
        #: ``neighbours[i]``: the states one SWAP away from state ``i``, over
        #: the sorted undirected edges that move something.
        self.neighbours: List[Tuple[int, ...]] = [
            tuple(
                index[tuple(b if p == a else a if p == b else p for p in state)]
                for a, b in edges
                if a in state or b in state
            )
            for state in self.states
        ]


__all__ = [
    "Permutation",
    "Mapping",
    "SwapEdge",
    "identity_permutation",
    "all_permutations",
    "compose_permutations",
    "invert_permutation",
    "apply_permutation",
    "permutation_between",
    "swap_transposition",
    "nearest_free_completion",
    "PermutationTable",
    "MAX_MAPPING_STATES",
    "MappingGraph",
]

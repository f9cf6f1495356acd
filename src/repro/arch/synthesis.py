"""SWAP synthesis for permutations of physical-qubit states.

The paper computes ``swaps(pi)`` by exhaustive BFS over the permutation group
(:class:`~repro.arch.permutations.PermutationTable`), which is provably
minimal but dies beyond 8 qubits (``m!`` states).  This module generalises
permutation realisation behind one small protocol with two backends:

* :class:`TableSynthesizer` wraps the exact table — provably minimal SWAP
  counts and sequences, kept for couplings and subsets of at most
  :data:`EXHAUSTIVE_SYNTHESIS_MAX_QUBITS` qubits,
* :class:`RoutedSynthesizer` synthesises SWAP sequences in polynomial time at
  any device size by greedy token-swapping: the permutation is decomposed
  into cycles, each cycle into transpositions between consecutive cycle
  positions, and each transposition is routed along a coupling-graph
  shortest path (``2·d − 1`` SWAPs exchange two states ``d`` edges apart
  while restoring everything in between).  Costs are honest *upper bounds*
  (:attr:`~RoutedSynthesizer.optimal` is ``False``); all-pairs distances are
  memoised per :meth:`~repro.arch.coupling.CouplingMap.canonical_key`
  through :func:`repro.arch.cache.shared_distance_matrix`.

Partial mapping transitions never enumerate completions here: free states
are matched to the nearest free destination
(:func:`~repro.arch.permutations.nearest_free_completion`), which is exact
only when it happens to meet the distance lower bound — the routed backend
trades that guarantee for polynomial scaling.

:func:`synthesizer_for` picks the backend by device size; prefer
:func:`repro.arch.cache.shared_synthesizer` which memoises the choice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.arch.cache import Memo
from repro.arch.coupling import CouplingMap
from repro.arch.permutations import (
    Mapping,
    Permutation,
    PermutationTable,
    SwapEdge,
    identity_permutation,
    nearest_free_completion,
)

#: Largest device for which the exhaustive (provably minimal) table is used.
EXHAUSTIVE_SYNTHESIS_MAX_QUBITS = 8

#: Per-synthesizer LRU capacity for memoised routed sequences.
_SEQUENCE_CACHE_MAX = 4096


@runtime_checkable
class PermutationSynthesizer(Protocol):
    """Realise permutations of physical-qubit states as SWAP sequences.

    The surface mirrors the query side of :class:`PermutationTable`, so a
    table can stand in wherever a synthesizer is expected (and vice versa
    for every consumer that only queries).
    """

    coupling: CouplingMap
    size: int

    @property
    def optimal(self) -> bool:
        """True when reported SWAP counts are provably minimal."""
        ...

    def reachable(self, perm: Permutation) -> bool:
        """True when *perm* can be realised by SWAPs on coupling edges."""
        ...

    def swaps(self, perm: Permutation) -> int:
        """Number of SWAPs of the synthesised sequence for *perm*."""
        ...

    def swap_sequence(self, perm: Permutation) -> List[SwapEdge]:
        """A SWAP-edge sequence realising *perm*."""
        ...

    def transition_cost(self, old: Mapping, new: Mapping) -> int:
        """SWAPs turning mapping *old* into mapping *new*."""
        ...

    def transition_sequence(self, old: Mapping, new: Mapping) -> List[SwapEdge]:
        """A SWAP-edge sequence turning mapping *old* into mapping *new*."""
        ...


class TableSynthesizer:
    """Exact synthesis backed by the exhaustive :class:`PermutationTable`.

    Args:
        coupling: The architecture (at most
            :data:`EXHAUSTIVE_SYNTHESIS_MAX_QUBITS` qubits).
        table: Pre-built table to wrap; resolved through
            :func:`repro.arch.cache.shared_permutation_table` when omitted.
    """

    optimal = True

    def __init__(self, coupling: CouplingMap, table: Optional[PermutationTable] = None):
        if table is None:
            from repro.arch.cache import shared_permutation_table

            table = shared_permutation_table(
                coupling, max_qubits_exhaustive=EXHAUSTIVE_SYNTHESIS_MAX_QUBITS
            )
        self.coupling = coupling
        self.size = coupling.num_qubits
        self.table = table

    def reachable(self, perm: Permutation) -> bool:
        return self.table.reachable(perm)

    def swaps(self, perm: Permutation) -> int:
        return self.table.swaps(perm)

    def swap_sequence(self, perm: Permutation) -> List[SwapEdge]:
        return self.table.swap_sequence(perm)

    def transition_cost(self, old: Mapping, new: Mapping) -> int:
        return self.table.transition_cost(old, new)

    def transition_sequence(self, old: Mapping, new: Mapping) -> List[SwapEdge]:
        return self.table.transition_sequence(old, new)


class SynthesisError(ValueError):
    """Raised when a permutation cannot be realised on the coupling graph."""


class RoutedSynthesizer:
    """Polynomial-time SWAP synthesis by path-routed token swapping.

    The synthesised sequences are valid for any device size and any
    reachable permutation, but their length is an upper bound on the true
    ``swaps(pi)`` — never below it, often above.  Consumers that report
    optimality must treat results built on this backend as ``optimal=False``.

    Args:
        coupling: The architecture.
        distances: Pre-computed all-pairs shortest-path distances; resolved
            through :func:`repro.arch.cache.shared_distance_matrix` when
            omitted.
    """

    optimal = False

    def __init__(
        self,
        coupling: CouplingMap,
        distances: Optional[Dict[int, Dict[int, int]]] = None,
    ):
        if distances is None:
            from repro.arch.cache import shared_distance_matrix

            distances = shared_distance_matrix(coupling)
        self.coupling = coupling
        self.size = coupling.num_qubits
        self._distances = distances
        self._neighbours = {
            qubit: coupling.neighbours(qubit) for qubit in range(coupling.num_qubits)
        }
        self._cache = Memo(_SEQUENCE_CACHE_MAX)

    # ------------------------------------------------------------------
    # Routing primitives
    # ------------------------------------------------------------------
    def _path(self, start: int, goal: int) -> List[int]:
        """A deterministic shortest path, descending the distance field."""
        row_goal = self._distances.get(goal, {})
        if start not in row_goal:
            raise SynthesisError(
                f"physical qubits {start} and {goal} are not connected on "
                f"{self.coupling.name!r}"
            )
        path = [start]
        current = start
        while current != goal:
            remaining = row_goal[current]
            current = next(
                n for n in self._neighbours[current]
                if row_goal.get(n) == remaining - 1
            )
            path.append(current)
        return path

    def _route_transposition(self, a: int, b: int, out: List[SwapEdge]) -> None:
        """Exchange the states at *a* and *b*, restoring everything between.

        Along the path ``a = v0, …, vd = b`` the forward sweep carries the
        state of ``a`` to ``b`` (displacing intermediates one step back) and
        the return sweep walks ``b``'s state home while fixing them up:
        ``2·d − 1`` SWAPs total.
        """
        path = self._path(a, b)
        for left, right in zip(path, path[1:]):
            out.append((min(left, right), max(left, right)))
        backward = path[:-1]
        for left, right in zip(backward[:-1][::-1], backward[1:][::-1]):
            out.append((min(left, right), max(left, right)))

    @staticmethod
    def _cycles(perm: Permutation) -> List[List[int]]:
        """Non-trivial cycles of *perm*, each starting at its smallest member."""
        seen = [False] * len(perm)
        cycles: List[List[int]] = []
        for start in range(len(perm)):
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            cycle = []
            current = start
            while not seen[current]:
                seen[current] = True
                cycle.append(current)
                current = perm[current]
            cycles.append(cycle)
        return cycles

    # ------------------------------------------------------------------
    # PermutationSynthesizer surface
    # ------------------------------------------------------------------
    def reachable(self, perm: Permutation) -> bool:
        if len(perm) != self.size or sorted(perm) != list(range(self.size)):
            return False
        return all(
            destination in self._distances.get(source, {})
            for source, destination in enumerate(perm)
        )

    def swap_sequence(self, perm: Permutation) -> List[SwapEdge]:
        """Synthesise *perm* via cycle decomposition + path routing.

        A cycle ``c0 → c1 → … → c(k-1) → c0`` (the state at ``ci`` moves to
        ``c(i+1)``) is realised by the transpositions ``(c(k-2), c(k-1)), …,
        (c0, c1)`` applied in that order; each transposition is routed along
        a shortest path.

        Raises:
            SynthesisError: If *perm* is not a permutation of this device's
                positions or crosses connectivity components.
        """
        perm = tuple(perm)
        if len(perm) != self.size or sorted(perm) != list(range(self.size)):
            raise SynthesisError(
                f"not a permutation of {self.size} positions: {perm!r}"
            )
        return list(self._cache.get(perm, lambda: self._route(perm)))

    def _route(self, perm: Permutation) -> Tuple[SwapEdge, ...]:
        sequence: List[SwapEdge] = []
        for cycle in self._cycles(perm):
            for left, right in zip(cycle[-2::-1], cycle[:0:-1]):
                self._route_transposition(left, right, sequence)
        return tuple(sequence)

    def swaps(self, perm: Permutation) -> int:
        return len(self.swap_sequence(perm))

    def transition_cost(self, old: Mapping, new: Mapping) -> int:
        return len(self.transition_sequence(old, new))

    def transition_sequence(self, old: Mapping, new: Mapping) -> List[SwapEdge]:
        """A SWAP sequence turning mapping *old* into mapping *new*.

        Free states (physical qubits hosting no mapped logical qubit) are
        assigned by nearest-free-destination matching — no enumeration of
        completions, hence an upper bound for partial mappings.
        """
        if len(old) != len(new):
            raise ValueError("mappings must have the same length")
        fixed: Dict[int, int] = {}
        for logical in range(len(old)):
            source, destination = old[logical], new[logical]
            if source in fixed and fixed[source] != destination:
                raise ValueError("old mapping is not injective")
            fixed[source] = destination
        completion = nearest_free_completion(fixed, self.size, self._distances)
        if completion is None:
            raise SynthesisError(
                "no permutation realises the requested transition on "
                f"{self.coupling.name!r}"
            )
        return self.swap_sequence(completion)


def replay_swap_sequence(size: int, sequence: List[SwapEdge]) -> Permutation:
    """The permutation realised by applying *sequence* left to right.

    Entry ``i`` of the result is the final position of the state initially
    at physical qubit ``i`` — the library's permutation convention, used by
    the differential tests to check synthesised sequences.
    """
    position = list(identity_permutation(size))
    for a, b in sequence:
        for token in range(size):
            if position[token] == a:
                position[token] = b
            elif position[token] == b:
                position[token] = a
    return tuple(position)


def synthesizer_for(
    coupling: CouplingMap,
    max_qubits_exhaustive: int = EXHAUSTIVE_SYNTHESIS_MAX_QUBITS,
) -> PermutationSynthesizer:
    """Pick the synthesis backend for *coupling* by device size.

    Devices of at most *max_qubits_exhaustive* qubits get the provably
    minimal :class:`TableSynthesizer`; anything larger gets the polynomial
    :class:`RoutedSynthesizer`.  Prefer
    :func:`repro.arch.cache.shared_synthesizer`, which memoises the instance
    per canonical key and counts backend selections for the perf gates.
    """
    if coupling.num_qubits <= max_qubits_exhaustive:
        return TableSynthesizer(coupling)
    return RoutedSynthesizer(coupling)


__all__ = [
    "EXHAUSTIVE_SYNTHESIS_MAX_QUBITS",
    "PermutationSynthesizer",
    "TableSynthesizer",
    "RoutedSynthesizer",
    "SynthesisError",
    "replay_swap_sequence",
    "synthesizer_for",
]

"""Process-wide caches for per-architecture artefacts.

The exact engines repeatedly rebuild expensive, read-only artefacts:

* the :class:`~repro.arch.permutations.PermutationTable` of a coupling map
  (exhaustive BFS over the permutation group — ``SATMapper`` used to rebuild
  it for *every* subset instance of every ``map`` call),
* the :class:`~repro.arch.permutations.MappingGraph` of a coupling map and
  logical-qubit count (the SWAP graph over complete mappings, which every
  ``DPMapper.map`` call searches),
* the list of connected physical-qubit subsets of a given size
  (:func:`~repro.arch.subsets.connected_subsets`).

All of them depend only on the structure of the coupling map, so this
module memoises them by
:meth:`~repro.arch.coupling.CouplingMap.canonical_key`.  Distinct subsets
of a device that induce the same re-indexed edge set share one table, and
every circuit of a batch reuses the artefacts of the first.

Every cache is one :class:`Memo`: process-wide, thread-safe and
LRU-bounded (:data:`MAX_ENTRIES` per cache, far above what mapping a
handful of devices needs), so a long-running service cannot grow them
without limit.  Nothing is persisted: rebuilding a table costs no more
than reading it back from disk.  The worker *processes* of a
process-executor pool (``executor="process"``) each populate their own
copy (forked children inherit the parent's warm cache on platforms whose
start method is ``fork``).

This module lives in :mod:`repro.arch` because the cached artefacts depend
only on the architecture layer; :mod:`repro.pipeline` re-exports its public
functions (``from repro.pipeline import cache_stats``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Tuple, TypeVar

from repro.arch.coupling import CouplingMap
from repro.arch.permutations import MappingGraph, PermutationTable
from repro.arch.subsets import connected_subsets

_T = TypeVar("_T")

#: Per-cache LRU capacity.
MAX_ENTRIES = 128


class Memo:
    """A thread-safe LRU memo of read-only artefacts.

    :meth:`get` looks a key up under the lock and builds a missing value
    outside it, so misses for *different* keys do not serialise behind a
    long build.  A racing build of the same key is harmless: the first
    value stored wins and every caller gets that one object.

    Args:
        capacity: Entries kept; the least recently used go first.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The value under *key*, built by ``build()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
        value = build()
        with self._lock:
            self._misses += 1
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def stats(self) -> Dict[str, int]:
        """``hits``, ``misses`` and ``entries``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


_TABLES = Memo(MAX_ENTRIES)
_GRAPHS = Memo(MAX_ENTRIES)
_SUBSETS = Memo(MAX_ENTRIES)
_DISTANCES = Memo(MAX_ENTRIES)
_SYNTHESIZERS = Memo(MAX_ENTRIES)
_MEMOS = (_TABLES, _GRAPHS, _SUBSETS, _DISTANCES, _SYNTHESIZERS)

# Backend selections: the perf gate pins that small devices never take the
# routed (upper-bound) path where the exact table is available.
_SELECTED = {"table": 0, "routed": 0}
_SELECTED_LOCK = threading.Lock()


def shared_permutation_table(
    coupling: CouplingMap, max_qubits_exhaustive: int = 8
) -> PermutationTable:
    """Return the (cached) :class:`PermutationTable` of *coupling*.

    The returned table is shared between callers and must be treated as
    read-only (it is, in normal use: :class:`PermutationTable` exposes no
    mutating API).

    Args:
        coupling: The architecture.
        max_qubits_exhaustive: Same guard as the :class:`PermutationTable`
            constructor; checked before any cache lookup so that a permissive
            earlier call cannot mask a stricter later one.
    """
    if coupling.num_qubits > max_qubits_exhaustive:
        raise ValueError(
            f"refusing to enumerate {coupling.num_qubits}! permutations; "
            "restrict the architecture to a subset of physical qubits first"
        )
    return _TABLES.get(
        coupling.canonical_key(),
        lambda: PermutationTable(
            coupling, max_qubits_exhaustive=max_qubits_exhaustive
        ),
    )


def shared_mapping_graph(coupling: CouplingMap, num_logical: int) -> MappingGraph:
    """The (cached) :class:`MappingGraph` of *coupling* for *num_logical*
    logical qubits.

    Built on the first request, so only processes that run the DP engine
    pay for it; callers must treat the returned graph as read-only.
    """
    return _GRAPHS.get(
        (coupling.canonical_key(), num_logical),
        lambda: MappingGraph(coupling, num_logical),
    )


def shared_distance_matrix(coupling: CouplingMap) -> Dict[int, Dict[int, int]]:
    """The (cached) all-pairs shortest-path distance matrix of *coupling*.

    Shared between the heuristics' lookahead and the routed SWAP synthesis
    backend; callers must treat the returned dictionary as read-only.
    """
    return _DISTANCES.get(coupling.canonical_key(), coupling.distance_matrix)


def shared_synthesizer(coupling: CouplingMap, max_qubits_exhaustive: int = 8):
    """The (cached) SWAP synthesizer for *coupling*, selected by size.

    Devices of at most *max_qubits_exhaustive* qubits share the exact
    :class:`~repro.arch.synthesis.TableSynthesizer` built on the cached
    permutation table; larger devices share a polynomial
    :class:`~repro.arch.synthesis.RoutedSynthesizer` built on the cached
    distance matrix.  Selections are counted in :func:`cache_stats`
    (``synthesizer_table_selected`` / ``synthesizer_routed_selected``) so
    the perf gates can pin that small devices stay on the exact path.
    """
    from repro.arch import synthesis  # local import: synthesis imports this module

    def build():
        use_table = coupling.num_qubits <= max_qubits_exhaustive
        with _SELECTED_LOCK:
            _SELECTED["table" if use_table else "routed"] += 1
        if use_table:
            table = shared_permutation_table(
                coupling, max_qubits_exhaustive=max_qubits_exhaustive
            )
            return synthesis.TableSynthesizer(coupling, table=table)
        distances = shared_distance_matrix(coupling)
        return synthesis.RoutedSynthesizer(coupling, distances=distances)

    return _SYNTHESIZERS.get((coupling.canonical_key(), max_qubits_exhaustive), build)


def shared_connected_subsets(coupling: CouplingMap, size: int) -> List[Tuple[int, ...]]:
    """Memoised :func:`~repro.arch.subsets.connected_subsets`.

    Returns a fresh list on every call (the cached tuples themselves are
    immutable), so callers may sort or slice the result freely.
    """
    return list(_SUBSETS.get(
        (coupling.canonical_key(), size),
        lambda: tuple(connected_subsets(coupling, size)),
    ))


def cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus current cache sizes (a snapshot copy)."""
    tables, graphs, subsets, distances, synthesizers = (
        memo.stats() for memo in _MEMOS
    )
    with _SELECTED_LOCK:
        selected = dict(_SELECTED)
    return {
        "permutation_table_hits": tables["hits"],
        "permutation_table_misses": tables["misses"],
        "mapping_graph_hits": graphs["hits"],
        "mapping_graph_misses": graphs["misses"],
        "connected_subsets_hits": subsets["hits"],
        "connected_subsets_misses": subsets["misses"],
        "distance_matrix_hits": distances["hits"],
        "distance_matrix_misses": distances["misses"],
        "synthesizer_hits": synthesizers["hits"],
        "synthesizer_misses": synthesizers["misses"],
        "synthesizer_table_selected": selected["table"],
        "synthesizer_routed_selected": selected["routed"],
        "permutation_tables_cached": tables["entries"],
        "mapping_graphs_cached": graphs["entries"],
        "connected_subset_lists_cached": subsets["entries"],
        "distance_matrices_cached": distances["entries"],
        "synthesizers_cached": synthesizers["entries"],
    }


def clear_caches() -> None:
    """Drop all cached artefacts and reset the counters (mainly for tests)."""
    for memo in _MEMOS:
        memo.clear()
    with _SELECTED_LOCK:
        _SELECTED.update(table=0, routed=0)


__all__ = [
    "MAX_ENTRIES",
    "Memo",
    "shared_permutation_table",
    "shared_mapping_graph",
    "shared_distance_matrix",
    "shared_synthesizer",
    "shared_connected_subsets",
    "cache_stats",
    "clear_caches",
]

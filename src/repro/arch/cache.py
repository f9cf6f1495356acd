"""Process-wide caches for per-architecture artefacts.

The exact engines repeatedly rebuild expensive, read-only artefacts:

* the :class:`~repro.arch.permutations.PermutationTable` of a coupling map
  (exhaustive BFS over the permutation group — ``SATMapper`` used to rebuild
  it for *every* subset instance of every ``map`` call),
* the :class:`~repro.arch.permutations.MappingTransitionTable` of a coupling
  map and logical-qubit count (all-pairs SWAP distances between mappings,
  which every ``DPMapper.map`` call reads),
* the list of connected physical-qubit subsets of a given size
  (:func:`~repro.arch.subsets.connected_subsets`).

Both depend only on the structure of the coupling map, so this module
memoises them by :meth:`~repro.arch.coupling.CouplingMap.canonical_key`.
Distinct subsets of a device that induce the same re-indexed edge set share
one table, and every circuit of a batch reuses the artefacts of the first.

The caches are process-wide, thread-safe and LRU-bounded (:data:`MAX_ENTRIES`
per cache, far above what mapping a handful of devices needs), so a
long-running service cannot grow them without limit.  Worker *processes* of a
:class:`~repro.pipeline.pipeline.MappingPipeline` each populate their own
copy (forked children inherit the parent's warm cache on platforms whose
start method is ``fork``).

This module lives in :mod:`repro.arch` because the cached artefacts depend
only on the architecture layer; :mod:`repro.pipeline` re-exports its public
functions (``from repro.pipeline import cache_stats``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.arch.diskcache import PermutationDiskStore
from repro.arch.permutations import MappingTransitionTable, PermutationTable
from repro.arch.subsets import connected_subsets

_CacheKey = Tuple[int, Tuple[Tuple[int, int], ...]]

#: Per-cache LRU capacity.
MAX_ENTRIES = 128

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_LOCK = threading.Lock()
_TABLES: "OrderedDict[_CacheKey, PermutationTable]" = OrderedDict()
_TRANSITIONS: "OrderedDict[Tuple[_CacheKey, int], MappingTransitionTable]" = OrderedDict()
_SUBSETS: "OrderedDict[Tuple[_CacheKey, int], Tuple[Tuple[int, ...], ...]]" = OrderedDict()
_DISTANCES: "OrderedDict[_CacheKey, Dict[int, Dict[int, int]]]" = OrderedDict()
_SYNTHESIZERS: "OrderedDict[Tuple[_CacheKey, int], object]" = OrderedDict()
_STATS = {
    "permutation_table_hits": 0,
    "permutation_table_misses": 0,
    "permutation_table_disk_hits": 0,
    "permutation_table_disk_writes": 0,
    "transition_table_hits": 0,
    "transition_table_misses": 0,
    "connected_subsets_hits": 0,
    "connected_subsets_misses": 0,
    "distance_matrix_hits": 0,
    "distance_matrix_misses": 0,
    "synthesizer_hits": 0,
    "synthesizer_misses": 0,
    # Backend selections: the perf gate pins that small devices never take
    # the routed (upper-bound) path where the exact table is available.
    "synthesizer_table_selected": 0,
    "synthesizer_routed_selected": 0,
}

# Explicitly configured cache directory; ``False`` means "not configured,
# fall back to the environment variable" (``None`` disables the disk layer).
_CACHE_DIR: object = False


def set_cache_dir(path: Optional[str]) -> None:
    """Configure the on-disk warm-start layer.

    Args:
        path: Cache directory for persisted permutation tables, or ``None``
            to disable the disk layer (the in-memory caches keep working).
            Overrides the ``REPRO_CACHE_DIR`` environment variable.
    """
    global _CACHE_DIR
    with _LOCK:
        _CACHE_DIR = None if path is None else str(path)


def reset_cache_dir() -> None:
    """Forget any explicit setting; ``REPRO_CACHE_DIR`` applies again."""
    global _CACHE_DIR
    with _LOCK:
        _CACHE_DIR = False


@contextmanager
def preserved_cache_dir() -> Iterator[None]:
    """Restore the cache-dir setting found on entry when the block exits."""
    global _CACHE_DIR
    with _LOCK:
        saved = _CACHE_DIR
    try:
        yield
    finally:
        with _LOCK:
            _CACHE_DIR = saved


def get_cache_dir() -> Optional[str]:
    """The active cache directory (explicit setting, else ``REPRO_CACHE_DIR``)."""
    with _LOCK:
        configured = _CACHE_DIR
    if configured is not False:
        return configured  # type: ignore[return-value]
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return env or None


def _disk_store() -> Optional[PermutationDiskStore]:
    cache_dir = get_cache_dir()
    if cache_dir is None:
        return None
    return PermutationDiskStore(cache_dir)


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
    key = coupling.canonical_key()
    with _LOCK:
        table = _TABLES.get(key)
        if table is not None:
            _STATS["permutation_table_hits"] += 1
            _TABLES.move_to_end(key)
            return table
    # Build outside the lock: the BFS can take a while and concurrent misses
    # for *different* architectures should not serialise.  A racing build of
    # the same key is harmless; ``setdefault`` keeps exactly one winner.
    # A configured disk layer is consulted first so that a restarted process
    # warm-starts from the artefacts of its predecessors instead of
    # re-running the BFS.
    store = _disk_store()
    table = store.load(coupling) if store is not None else None
    disk_hit = table is not None
    if table is None:
        table = PermutationTable(coupling, max_qubits_exhaustive=max_qubits_exhaustive)
    with _LOCK:
        _STATS["permutation_table_misses"] += 1
        if disk_hit:
            _STATS["permutation_table_disk_hits"] += 1
        winner = _TABLES.setdefault(key, table)
        _TABLES.move_to_end(key)
        while len(_TABLES) > MAX_ENTRIES:
            _TABLES.popitem(last=False)
    if store is not None and not disk_hit and winner is table:
        try:
            store.save(table)
        except OSError:
            pass  # a read-only cache directory must not fail the mapping
        else:
            with _LOCK:
                _STATS["permutation_table_disk_writes"] += 1
    return winner


def shared_transition_table(
    coupling: CouplingMap, num_logical: int
) -> MappingTransitionTable:
    """The (cached) :class:`MappingTransitionTable` of *coupling* for
    *num_logical* logical qubits.

    Built on the first request, so only processes that run the DP engine
    pay for it; callers must treat the returned table as read-only.
    """
    key = (coupling.canonical_key(), num_logical)
    with _LOCK:
        cached = _TRANSITIONS.get(key)
        if cached is not None:
            _STATS["transition_table_hits"] += 1
            _TRANSITIONS.move_to_end(key)
            return cached
    # Built outside the lock, like the permutation table: ``setdefault``
    # keeps exactly one winner of a racing build.
    table = MappingTransitionTable(coupling, num_logical)
    with _LOCK:
        _STATS["transition_table_misses"] += 1
        winner = _TRANSITIONS.setdefault(key, table)
        _TRANSITIONS.move_to_end(key)
        while len(_TRANSITIONS) > MAX_ENTRIES:
            _TRANSITIONS.popitem(last=False)
    return winner


def shared_distance_matrix(coupling: CouplingMap) -> Dict[int, Dict[int, int]]:
    """The (cached) all-pairs shortest-path distance matrix of *coupling*.

    Shared between the heuristics' lookahead and the routed SWAP synthesis
    backend; callers must treat the returned dictionary as read-only.  The
    matrix is never persisted: recomputing it costs no more than reading it
    back from disk.
    """
    key = coupling.canonical_key()
    with _LOCK:
        cached = _DISTANCES.get(key)
        if cached is not None:
            _STATS["distance_matrix_hits"] += 1
            _DISTANCES.move_to_end(key)
            return cached
    distances = coupling.distance_matrix()
    with _LOCK:
        _STATS["distance_matrix_misses"] += 1
        winner = _DISTANCES.setdefault(key, distances)
        _DISTANCES.move_to_end(key)
        while len(_DISTANCES) > MAX_ENTRIES:
            _DISTANCES.popitem(last=False)
    return winner


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

    key = (coupling.canonical_key(), max_qubits_exhaustive)
    with _LOCK:
        cached = _SYNTHESIZERS.get(key)
        if cached is not None:
            _STATS["synthesizer_hits"] += 1
            _SYNTHESIZERS.move_to_end(key)
            return cached
    use_table = coupling.num_qubits <= max_qubits_exhaustive
    if use_table:
        table = shared_permutation_table(
            coupling, max_qubits_exhaustive=max_qubits_exhaustive
        )
        built = synthesis.TableSynthesizer(coupling, table=table)
    else:
        built = synthesis.RoutedSynthesizer(
            coupling, distances=shared_distance_matrix(coupling)
        )
    with _LOCK:
        _STATS["synthesizer_misses"] += 1
        if use_table:
            _STATS["synthesizer_table_selected"] += 1
        else:
            _STATS["synthesizer_routed_selected"] += 1
        winner = _SYNTHESIZERS.setdefault(key, built)
        _SYNTHESIZERS.move_to_end(key)
        while len(_SYNTHESIZERS) > MAX_ENTRIES:
            _SYNTHESIZERS.popitem(last=False)
    return winner


def shared_connected_subsets(coupling: CouplingMap, size: int) -> List[Tuple[int, ...]]:
    """Memoised :func:`~repro.arch.subsets.connected_subsets`.

    Returns a fresh list on every call (the cached tuples themselves are
    immutable), so callers may sort or slice the result freely.
    """
    key = (coupling.canonical_key(), size)
    with _LOCK:
        cached = _SUBSETS.get(key)
        if cached is not None:
            _STATS["connected_subsets_hits"] += 1
            _SUBSETS.move_to_end(key)
            return list(cached)
    subsets = tuple(connected_subsets(coupling, size))
    with _LOCK:
        _STATS["connected_subsets_misses"] += 1
        subsets = _SUBSETS.setdefault(key, subsets)
        _SUBSETS.move_to_end(key)
        while len(_SUBSETS) > MAX_ENTRIES:
            _SUBSETS.popitem(last=False)
        return list(subsets)


def cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus current cache sizes (a snapshot copy)."""
    with _LOCK:
        stats = dict(_STATS)
        stats["permutation_tables_cached"] = len(_TABLES)
        stats["transition_tables_cached"] = len(_TRANSITIONS)
        stats["connected_subset_lists_cached"] = len(_SUBSETS)
        stats["distance_matrices_cached"] = len(_DISTANCES)
        stats["synthesizers_cached"] = len(_SYNTHESIZERS)
    store = _disk_store()
    if store is not None:
        stats["permutation_tables_on_disk"] = len(store.entries())
        stats["disk_cache_bytes"] = store.size_bytes()
    return stats


def clear_caches() -> None:
    """Drop all cached artefacts and reset the counters (mainly for tests)."""
    with _LOCK:
        _TABLES.clear()
        _TRANSITIONS.clear()
        _SUBSETS.clear()
        _DISTANCES.clear()
        _SYNTHESIZERS.clear()
        for key in _STATS:
            _STATS[key] = 0


__all__ = [
    "MAX_ENTRIES",
    "CACHE_DIR_ENV",
    "set_cache_dir",
    "reset_cache_dir",
    "preserved_cache_dir",
    "get_cache_dir",
    "shared_permutation_table",
    "shared_transition_table",
    "shared_distance_matrix",
    "shared_synthesizer",
    "shared_connected_subsets",
    "cache_stats",
    "clear_caches",
]

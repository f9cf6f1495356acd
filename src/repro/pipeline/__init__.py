"""Production mapping pipeline: registry, batching, seeding, caching.

This subsystem turns the individual mapping engines of :mod:`repro.exact`
and :mod:`repro.heuristic` into one service-shaped entry point:

* :mod:`repro.pipeline.registry` — a :class:`Mapper` protocol plus a name
  registry (``get_mapper("sat", coupling, ...)``) so callers no longer
  hard-code engine classes,
* :mod:`repro.pipeline.pipeline` — :class:`MappingPipeline` with a batch API
  (``map_many``) that fans independent circuits out over a thread or process
  pool and returns structured per-item results,
* :mod:`repro.pipeline.bounds` — :class:`BoundProviderChain`, the seed
  resolver holding a caller's upper bound and the store's solve-artifact
  handle,
* the process-wide caches of :mod:`repro.arch.cache` (memoised
  :class:`~repro.arch.permutations.PermutationTable` and
  :func:`~repro.arch.subsets.connected_subsets` keyed by the canonical
  coupling-map key) are re-exported here.

The submodules are imported lazily (PEP 562): :mod:`repro.pipeline.registry`
builds engines from :mod:`repro.exact` and :mod:`repro.heuristic`, and
deferring the imports keeps this package cheap to import and free of
import-order coupling with the engine layers.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "Mapper": "repro.pipeline.registry",
    "MapperRegistry": "repro.pipeline.registry",
    "register_mapper": "repro.pipeline.registry",
    "get_mapper": "repro.pipeline.registry",
    "available_mappers": "repro.pipeline.registry",
    "resolve_mapper_name": "repro.pipeline.registry",
    "MappingPipeline": "repro.pipeline.pipeline",
    "BatchItem": "repro.pipeline.pipeline",
    "BoundProviderChain": "repro.pipeline.bounds",
    "SeedResolution": "repro.pipeline.bounds",
    "shared_permutation_table": "repro.arch.cache",
    "shared_connected_subsets": "repro.arch.cache",
    "cache_stats": "repro.arch.cache",
    "clear_caches": "repro.arch.cache",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.arch.cache import (
        cache_stats,
        clear_caches,
        shared_connected_subsets,
        shared_permutation_table,
    )
    from repro.pipeline.bounds import BoundProviderChain, SeedResolution
    from repro.pipeline.pipeline import BatchItem, MappingPipeline
    from repro.pipeline.registry import (
        Mapper,
        MapperRegistry,
        available_mappers,
        get_mapper,
        register_mapper,
        resolve_mapper_name,
    )


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

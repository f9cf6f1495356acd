"""Production service layer: fingerprints, persistent stores, async mapping.

This subsystem turns the batch pipeline of :mod:`repro.pipeline` into a
deployable service that never solves the same instance twice:

* :mod:`repro.service.fingerprint` — content-addressed
  :func:`~repro.service.fingerprint.job_fingerprint` over (circuit,
  coupling map, engine, options), built on
  :meth:`~repro.circuit.circuit.QuantumCircuit.fingerprint` and
  :meth:`~repro.arch.coupling.CouplingMap.canonical_key`,
* :mod:`repro.service.store` — :class:`~repro.service.store.ResultStore`,
  a validated, fingerprint-keyed result cache (in-memory LRU over SQLite,
  safe under concurrent writers),
* :mod:`repro.service.service` — the asyncio
  :class:`~repro.service.service.MappingService` with submit/status/result
  job semantics, in-flight deduplication and multi-device routing,
* :mod:`repro.service.errors` — structured, machine-readable service errors.

A cache directory (``--cache-dir`` or ``REPRO_CACHE_DIR``, resolved by
:func:`~repro.service.store.resolve_cache_dir`) holds only
``results.sqlite``: the result store, the solve artifacts and the job
journal.  The per-architecture caches of :mod:`repro.arch.cache` live in
process memory and are never written to disk.

The submodules are imported lazily (PEP 562) to keep ``import repro`` cheap.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "ServiceError": "repro.service.errors",
    "InvalidResultError": "repro.service.errors",
    "JobNotFoundError": "repro.service.errors",
    "MappingFailedError": "repro.service.errors",
    "RoutingError": "repro.service.errors",
    "StoreError": "repro.service.errors",
    "ServiceStateError": "repro.service.errors",
    "job_fingerprint": "repro.service.fingerprint",
    "coupling_fingerprint": "repro.service.fingerprint",
    "canonical_options": "repro.service.fingerprint",
    "describe_job": "repro.service.fingerprint",
    "ResultStore": "repro.service.store",
    "MappingService": "repro.service.service",
    "Job": "repro.service.service",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.service.errors import (
        InvalidResultError,
        JobNotFoundError,
        MappingFailedError,
        RoutingError,
        ServiceError,
        ServiceStateError,
        StoreError,
    )
    from repro.service.fingerprint import (
        canonical_options,
        coupling_fingerprint,
        describe_job,
        job_fingerprint,
    )
    from repro.service.service import Job, MappingService
    from repro.service.store import ResultStore


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

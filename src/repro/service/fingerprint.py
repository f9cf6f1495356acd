"""Content-addressed fingerprints for mapping jobs.

A *job* is the full input of one mapping request: the circuit, the target
coupling map, the engine name and the engine options.  Two jobs with the same
fingerprint are guaranteed to produce the same :class:`~repro.exact.result.
MappingResult` (up to engine nondeterminism the options pin down, e.g. a
seed), so the fingerprint is the cache key of the
:class:`~repro.service.store.ResultStore`.

The circuit contributes through :meth:`~repro.circuit.circuit.QuantumCircuit.
fingerprint` (canonical gate-stream hash, name excluded), the architecture
through :meth:`~repro.arch.coupling.CouplingMap.canonical_key` (edge set,
name excluded), the engine through its *resolved* registry name (aliases
collapse onto one key) and the options through a canonical JSON rendering
with sorted keys, in which an option set to its default value is left out
(``{"optimizer": "core"}`` and ``{}`` are one job).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import FINGERPRINT_VERSION, QuantumCircuit
from repro.sat.optimize import DEFAULT_OPTIMIZER

#: Version tag of the job-fingerprint scheme (includes the circuit scheme).
JOB_FINGERPRINT_VERSION = f"jfp1-{FINGERPRINT_VERSION}"


def _canonical_option(value: Any) -> Any:
    """Reduce an engine option to a deterministic JSON-ready value.

    Strategy instances (and any other rich objects) are identified by their
    ``name`` attribute when they have one; everything else non-primitive
    falls back to ``repr`` — deterministic for the value objects this
    package uses.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _canonical_option(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_option(item) for item in value]
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"{type(value).__name__}:{name}"
    return repr(value)


#: Engine options whose default value adds nothing to a job's identity.
_DEFAULT_OPTIONS: Dict[str, Any] = {"optimizer": DEFAULT_OPTIMIZER}


def canonical_options(options: Optional[Mapping[str, Any]]) -> str:
    """Canonical JSON rendering of engine options (sorted keys, stable
    values, options at their default value left out)."""
    reduced = {
        str(key): _canonical_option(value)
        for key, value in (options or {}).items()
        if key not in _DEFAULT_OPTIONS or _DEFAULT_OPTIONS[key] != value
    }
    return json.dumps(reduced, sort_keys=True, separators=(",", ":"))


def coupling_fingerprint(coupling: CouplingMap) -> str:
    """SHA-256 hex digest of a coupling map's canonical (name-free) key."""
    num_qubits, edges = coupling.canonical_key()
    hasher = hashlib.sha256()
    hasher.update(f"arch|{num_qubits}|".encode())
    hasher.update(";".join(f"{c},{t}" for c, t in edges).encode())
    return hasher.hexdigest()


def job_fingerprint(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    engine: str,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """The content-addressed cache key of one mapping job.

    Args:
        circuit: The circuit to map.
        coupling: The target architecture.
        engine: Engine name — pass the *resolved* registry name (use
            :func:`repro.pipeline.registry.resolve_mapper_name`) so aliases
            share one key; the raw string is hashed as given.
        options: Engine options as passed to the mapper factory.

    Returns:
        A SHA-256 hex digest; equal inputs (structurally, names excluded)
        yield equal digests across processes and platforms.
    """
    hasher = hashlib.sha256()
    parts = (
        JOB_FINGERPRINT_VERSION,
        circuit.fingerprint(),
        coupling_fingerprint(coupling),
        engine.lower(),
        canonical_options(options),
    )
    hasher.update("\n".join(parts).encode())
    return hasher.hexdigest()


def describe_job(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    engine: str,
    options: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Human-oriented provenance record of a job's fingerprint inputs."""
    return {
        "fingerprint": job_fingerprint(circuit, coupling, engine, options),
        "circuit_fingerprint": circuit.fingerprint(),
        "circuit_name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "num_gates": circuit.num_gates,
        "arch_fingerprint": coupling_fingerprint(coupling),
        "arch_name": coupling.name,
        "engine": engine.lower(),
        "options": canonical_options(options),
        "scheme": JOB_FINGERPRINT_VERSION,
    }


__all__ = [
    "JOB_FINGERPRINT_VERSION",
    "canonical_options",
    "coupling_fingerprint",
    "job_fingerprint",
    "describe_job",
]

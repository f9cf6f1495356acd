"""On-disk persistence for per-architecture artefacts.

The process-wide caches of :mod:`repro.arch.cache` die with the process; for
a service that restarts (deploys, crashes, autoscaling) every worker would
re-run the exhaustive permutation-group BFS for every architecture it sees.
This module adds the durable layer underneath: a directory of JSON files,
one per canonical coupling-map key, holding the full
:class:`~repro.arch.permutations.PermutationTable` swap-sequence table.

Layout and concurrency
----------------------
Each artefact lives in ``<cache_dir>/permtables/<sha256-of-key>.json``.
Writers serialise into a unique temporary file in the same directory and
``os.replace`` it into place, so concurrent writers (threads *or* processes)
can never interleave partial content — the last complete write wins, and all
complete writes of the same key are identical by construction.  Corrupt or
stale files (wrong schema version, key mismatch from a hash collision) are
treated as misses, never as errors.

The cache directory is chosen per call site; :mod:`repro.arch.cache` resolves
it from an explicit ``set_cache_dir`` call or the ``REPRO_CACHE_DIR``
environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.arch.permutations import PermutationTable

#: Payload layout version; files with another version are ignored (miss).
DISK_SCHEMA_VERSION = 1

_CanonicalKey = Tuple[int, Tuple[Tuple[int, int], ...]]


def key_digest(key: _CanonicalKey) -> str:
    """Stable hex digest of a canonical coupling-map key (the file name)."""
    num_qubits, edges = key
    text = f"{num_qubits}|" + ";".join(f"{c},{t}" for c, t in edges)
    return hashlib.sha256(text.encode()).hexdigest()


class PermutationDiskStore:
    """Durable permutation-table store under one cache directory.

    Args:
        cache_dir: Root cache directory; the store uses the ``permtables/``
            subdirectory and creates it on first write.
    """

    def __init__(self, cache_dir):
        self.root = Path(cache_dir) / "permtables"

    def _path(self, key: _CanonicalKey) -> Path:
        return self.root / f"{key_digest(key)}.json"

    # ------------------------------------------------------------------
    def load(self, coupling: CouplingMap) -> Optional[PermutationTable]:
        """Warm-start a table for *coupling* from disk; ``None`` on any miss."""
        key = coupling.canonical_key()
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if payload.get("schema_version") != DISK_SCHEMA_VERSION:
            return None
        if payload.get("num_qubits") != key[0]:
            return None
        if [list(edge) for edge in key[1]] != payload.get("edges"):
            return None
        sequences: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        for perm_text, seq in payload["sequences"].items():
            perm = tuple(int(part) for part in perm_text.split(","))
            sequences[perm] = [tuple(edge) for edge in seq]
        return PermutationTable.from_sequences(coupling, sequences)

    def save(self, table: PermutationTable) -> Path:
        """Persist *table* atomically; returns the file path."""
        key = table.coupling.canonical_key()
        payload = {
            "schema_version": DISK_SCHEMA_VERSION,
            "num_qubits": key[0],
            "edges": [list(edge) for edge in key[1]],
            "sequences": {
                ",".join(str(q) for q in perm): [list(edge) for edge in seq]
                for perm, seq in table.sequences().items()
            },
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, temp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def entries(self) -> List[Path]:
        """All artefact files currently on disk (empty when absent)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def size_bytes(self) -> int:
        """Total size of the stored artefacts in bytes.

        A file deleted between the directory listing and the ``stat`` (a
        concurrent ``clear``) counts as zero instead of raising.
        """
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every stored artefact; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


__all__ = [
    "DISK_SCHEMA_VERSION",
    "PermutationDiskStore",
    "key_digest",
]

"""Tests for MappingResult serialization and the persistent ResultStore."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import random_clifford_t_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.exact.result import RESULT_SCHEMA_VERSION, MappingResult
from repro.service.errors import InvalidResultError, StoreError
from repro.service.fingerprint import job_fingerprint
from repro.service.store import ResultStore

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _result(seed=1):
    circuit = random_clifford_t_circuit(3, 4, 6, seed=seed)
    return DPMapper(ibm_qx4()).map(circuit)


def _fingerprint(result):
    return job_fingerprint(result.original_circuit, ibm_qx4(), "dp", {})


class TestResultSerialization:
    def test_round_trip_preserves_everything(self):
        result = _result()
        rebuilt = MappingResult.from_dict(result.to_dict())
        assert rebuilt.added_cost == result.added_cost
        assert rebuilt.total_cost == result.total_cost
        assert rebuilt.objective == result.objective
        assert rebuilt.optimal == result.optimal
        assert rebuilt.engine == result.engine
        assert rebuilt.strategy == result.strategy
        assert rebuilt.num_permutation_spots == result.num_permutation_spots
        assert rebuilt.runtime_seconds == result.runtime_seconds
        assert rebuilt.statistics == result.statistics
        assert rebuilt.schedule.mappings == result.schedule.mappings
        assert rebuilt.schedule.initial_mapping == result.schedule.initial_mapping
        assert (
            rebuilt.mapped_circuit.fingerprint()
            == result.mapped_circuit.fingerprint()
        )
        assert (
            rebuilt.original_circuit.fingerprint()
            == result.original_circuit.fingerprint()
        )
        assert rebuilt.mapped_circuit.name == result.mapped_circuit.name
        assert rebuilt.original_circuit.name == result.original_circuit.name

    def test_payload_is_json_ready(self):
        json.dumps(_result().to_dict())

    def test_version_mismatch_rejected(self):
        payload = _result().to_dict()
        payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            MappingResult.from_dict(payload)

    def test_validate_passes_on_engine_output(self):
        result = _result()
        result.validate()
        result.validate(ibm_qx4())

    def test_validate_rejects_cost_mismatch(self):
        result = _result()
        result.mapped_circuit.swap(0, 1)  # corrupt: extra gate not in breakdown
        with pytest.raises(ValueError, match="cost mismatch"):
            result.validate()

    def test_validate_rejects_bad_schedule(self):
        result = _result()
        result.schedule.initial_mapping = (0, 0, 1)  # not injective
        with pytest.raises(ValueError, match="injective"):
            result.validate()

    def test_validate_rejects_noncompliant_circuit(self):
        from repro.exact.cost import CostBreakdown
        from repro.exact.result import MappingSchedule

        original = QuantumCircuit(2)
        original.cx(0, 1)
        mapped = QuantumCircuit(5)
        mapped.cx(0, 1)  # qx4 only allows 1 -> 0
        result = MappingResult(
            mapped_circuit=mapped,
            original_circuit=original,
            schedule=MappingSchedule(
                num_logical=2, num_physical=5,
                mappings=[(0, 1)], initial_mapping=(0, 1),
            ),
            cost=CostBreakdown(original_gates=1, swaps=0, reversals=0),
        )
        result.validate()  # internally consistent...
        with pytest.raises(ValueError, match="violates"):
            result.validate(ibm_qx4())  # ...but not architecture-compliant


class TestResultStore:
    def test_memory_only_round_trip(self):
        store = ResultStore()
        result = _result()
        fingerprint = _fingerprint(result)
        assert store.get(fingerprint) is None
        store.put(fingerprint, result)
        assert store.get(fingerprint) is result  # memory tier shares objects
        assert fingerprint in store
        assert len(store) == 1

    def test_disk_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        # A second store over the same file sees the entry (cold memory).
        fresh = ResultStore(tmp_path / "results.sqlite")
        loaded = fresh.get(fingerprint)
        assert loaded is not None
        assert loaded.added_cost == result.added_cost
        assert (
            loaded.mapped_circuit.fingerprint()
            == result.mapped_circuit.fingerprint()
        )
        stats = fresh.stats()
        assert stats["disk_hits"] == 1
        assert stats["memory_hits"] == 0

    def test_memory_lru_bound(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite", max_memory_entries=2)
        results = [_result(seed) for seed in (1, 2, 3)]
        for result in results:
            store.put(_fingerprint(result), result)
        assert store.stats()["memory_entries"] == 2
        # The evicted entry is still served from disk.
        assert store.get(_fingerprint(results[0])) is not None

    def test_invalid_result_refused(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        result = _result()
        result.mapped_circuit.swap(0, 1)  # breaks the cost bookkeeping
        with pytest.raises(InvalidResultError) as excinfo:
            store.put("deadbeef", result)
        assert excinfo.value.code == "invalid-result"
        assert excinfo.value.to_dict()["details"]["fingerprint"] == "deadbeef"
        assert "deadbeef" not in store
        assert store.stats()["invalid_rejected"] == 1

    def test_corrupt_row_dropped_as_miss(self, tmp_path):
        path = tmp_path / "results.sqlite"
        store = ResultStore(path)
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        import sqlite3

        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "UPDATE results SET payload = ? WHERE fingerprint = ?",
                ("{not json", fingerprint),
            )
        fresh = ResultStore(path)
        assert fresh.get(fingerprint) is None
        assert fresh.stats()["corrupt_dropped"] == 1
        assert len(fresh) == 0  # self-healed

    def test_entries_metadata(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        result = _result()
        store.put(_fingerprint(result), result)
        (entry,) = store.entries()
        assert entry["engine"] == "dp"
        assert entry["optimal"] is True
        assert entry["added_cost"] == result.added_cost

    def test_clear_drops_both_tiers(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        result = _result()
        store.put(_fingerprint(result), result)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(_fingerprint(result)) is None

    def test_concurrent_writers_same_file(self, tmp_path):
        path = tmp_path / "results.sqlite"
        results = [_result(seed) for seed in range(1, 6)]
        errors = []

        def writer(result):
            try:
                ResultStore(path).put(_fingerprint(result), result)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(r,)) for r in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Identical circuits (same seed ordering) may collide on one
        # fingerprint; every distinct fingerprint must be present.
        expected = {_fingerprint(result) for result in results}
        assert set(ResultStore(path).fingerprints()) == expected


class TestCrossProcessPersistence:
    """A store written by one process must serve a fresh process (PR gate)."""

    _WRITE = """
import sys
sys.path.insert(0, {src!r})
from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import random_clifford_t_circuit
from repro.exact.dp_mapper import DPMapper
from repro.service.fingerprint import job_fingerprint
from repro.service.store import ResultStore

circuit = random_clifford_t_circuit(3, 4, 6, seed=42)
result = DPMapper(ibm_qx4()).map(circuit)
fingerprint = job_fingerprint(circuit, ibm_qx4(), "dp", {{}})
ResultStore({path!r}).put(fingerprint, result)
print(fingerprint, result.added_cost)
"""

    _READ = """
import sys
sys.path.insert(0, {src!r})
from repro.service.store import ResultStore

store = ResultStore({path!r})
result = store.get({fingerprint!r})
assert result is not None, "fresh process missed the persisted result"
result.validate()
print(result.added_cost)
"""

    def test_fresh_process_reads_previous_store(self, tmp_path):
        src = str(_REPO_ROOT / "src")
        path = str(tmp_path / "results.sqlite")
        write = subprocess.run(
            [sys.executable, "-c", self._WRITE.format(src=src, path=path)],
            capture_output=True, text=True, check=True,
        )
        fingerprint, added_cost = write.stdout.split()
        read = subprocess.run(
            [sys.executable, "-c",
             self._READ.format(src=src, path=path, fingerprint=fingerprint)],
            capture_output=True, text=True, check=True,
        )
        assert read.stdout.strip() == added_cost


class TestTTLExpiry:
    """``ttl_seconds``: expired rows read as misses and are purged lazily."""

    def test_expired_entries_read_as_misses(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite", ttl_seconds=60.0)
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        assert store.get(fingerprint) is not None

        # Age the row below the cutoff instead of sleeping.
        import sqlite3, time as _time
        with sqlite3.connect(str(tmp_path / "r.sqlite")) as conn:
            conn.execute(
                "UPDATE results SET created_at = ?", (_time.time() - 120,)
            )
        aged = ResultStore(tmp_path / "r.sqlite", ttl_seconds=60.0)
        assert aged.get(fingerprint) is None
        assert aged.stats()["expired_dropped"] == 1
        # Lazy purge: the row is gone for good, even without a TTL.
        assert ResultStore(tmp_path / "r.sqlite").get(fingerprint) is None

    def test_memory_tier_honours_ttl(self):
        store = ResultStore(ttl_seconds=60.0)
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        assert store.get(fingerprint) is not None
        # Age the in-memory entry directly.
        with store._lock:
            store._memory[fingerprint].created_at -= 120
        assert store.get(fingerprint) is None
        assert fingerprint not in store

    def test_expired_purge_spares_concurrently_refreshed_rows(self, tmp_path):
        """A stale memory entry must not delete another writer's fresh row."""
        path = tmp_path / "r.sqlite"
        reader = ResultStore(path, ttl_seconds=60.0)
        writer = ResultStore(path, ttl_seconds=60.0)
        result = _result()
        fingerprint = _fingerprint(result)
        reader.put(fingerprint, result)
        # Age only the reader's in-memory view; then the other handle
        # re-puts a fresh row (fresh created_at on disk).
        with reader._lock:
            reader._memory[fingerprint].created_at -= 120
        writer.put(fingerprint, result)
        # The reader's lazy purge fires, but the guarded DELETE must leave
        # the refreshed row alone — and the same call falls through to the
        # disk tier and serves it.
        assert reader.get(fingerprint) is not None
        assert reader.stats()["expired_dropped"] == 1
        assert reader.stats()["disk_hits"] == 1

    def test_contains_honours_ttl(self, tmp_path):
        store = ResultStore(
            tmp_path / "r.sqlite", ttl_seconds=60.0, max_memory_entries=0
        )
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        assert fingerprint in store
        import sqlite3, time as _time
        with sqlite3.connect(str(tmp_path / "r.sqlite")) as conn:
            conn.execute(
                "UPDATE results SET created_at = ?", (_time.time() - 120,)
            )
        assert fingerprint not in store

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResultStore(ttl_seconds=0)
        with pytest.raises(ValueError):
            ResultStore().prune(ttl_seconds=-1)

    def test_prune_sweeps_expired_rows(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        fresh, stale = _result(seed=1), _result(seed=2)
        store.put(_fingerprint(fresh), fresh)
        store.put(_fingerprint(stale), stale)
        import sqlite3, time as _time
        with sqlite3.connect(str(tmp_path / "r.sqlite")) as conn:
            conn.execute(
                "UPDATE results SET created_at = ? WHERE fingerprint = ?",
                (_time.time() - 120, _fingerprint(stale)),
            )
        reopened = ResultStore(tmp_path / "r.sqlite")
        assert reopened.prune(ttl_seconds=60.0) == 1
        assert reopened.get(_fingerprint(stale)) is None
        assert reopened.get(_fingerprint(fresh)) is not None

    def test_prune_without_ttl_is_a_noop(self):
        store = ResultStore()
        result = _result()
        store.put(_fingerprint(result), result)
        assert store.prune() == 0
        assert len(store) == 1

    def test_prune_report_counts_rows_and_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        fresh, stale = _result(seed=1), _result(seed=2)
        store.put(_fingerprint(fresh), fresh)
        store.put(_fingerprint(stale), stale)
        import sqlite3, time as _time
        with sqlite3.connect(str(tmp_path / "r.sqlite")) as conn:
            conn.execute(
                "UPDATE results SET created_at = ? WHERE fingerprint = ?",
                (_time.time() - 120, _fingerprint(stale)),
            )
        reopened = ResultStore(tmp_path / "r.sqlite")
        report = reopened.prune_report(ttl_seconds=60.0)
        assert report["rows_pruned"] == 1
        assert report["bytes_reclaimed"] > 0
        assert report["persistent"] is True
        assert report["ttl_seconds"] == 60.0
        # Nothing left to reclaim on a second sweep.
        again = reopened.prune_report(ttl_seconds=60.0)
        assert again["rows_pruned"] == 0
        assert again["bytes_reclaimed"] == 0

    def test_drop_memory_evicts_lru_but_keeps_disk(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        assert store.drop_memory() == 1
        assert store.stats()["memory_entries"] == 0
        assert store.stats()["disk_entries"] == 1
        # The next get repopulates from disk: nothing was lost.
        assert store.get(fingerprint) is not None
        # Memory-only store: dropping the LRU is a real invalidation.
        ephemeral = ResultStore()
        ephemeral.put(fingerprint, result)
        assert ephemeral.drop_memory() == 1
        assert ephemeral.get(fingerprint) is None


class TestDeleteAndBoundLookup:
    def test_delete_removes_both_tiers(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        assert store.delete(fingerprint)
        assert store.get(fingerprint) is None
        assert not store.delete(fingerprint)

    def test_admin_calls_raise_store_error_on_a_sick_database(self, tmp_path):
        import sqlite3

        store = ResultStore(tmp_path / "r.sqlite")
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("DROP TABLE results")
            conn.execute("DROP TABLE artifacts")
        admin_calls = {
            "prune_report": lambda: store.prune_report(ttl_seconds=60),
            "delete": lambda: store.delete("f" * 64),
            "clear": store.clear,
            "in": lambda: "f" * 64 in store,
            "len": lambda: len(store),
            "fingerprints": store.fingerprints,
            "entries": store.entries,
            "artifact_rows": store.artifact_rows,
        }
        for name, call in admin_calls.items():
            with pytest.raises(StoreError, match="no such table"):
                call()
        # Administrative failures do not feed the job path's breaker.
        stats = store.stats()
        assert stats["disk_errors"] == 0
        assert not stats["degraded"]
        assert stats["disk_entries"] is None

    def test_memory_only_entries_report_job_fingerprints(self):
        from repro.service.fingerprint import coupling_fingerprint

        store = ResultStore()
        result = _result()
        circuit_fp = result.original_circuit.fingerprint()
        arch_fp = coupling_fingerprint(ibm_qx4())
        store.put(_fingerprint(result), result,
                  circuit_fp=circuit_fp, arch_fp=arch_fp)
        (entry,) = store.entries()
        assert (entry["circuit_fp"], entry["arch_fp"]) == (circuit_fp, arch_fp)


class TestSchemaMigration:
    """Legacy databases (no fingerprint columns) are migrated in place."""

    def _legacy_db(self, path, result, fingerprint):
        import sqlite3, time as _time

        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "CREATE TABLE results ("
                "fingerprint TEXT PRIMARY KEY, payload TEXT NOT NULL, "
                "engine TEXT NOT NULL, added_cost INTEGER NOT NULL, "
                "optimal INTEGER NOT NULL, created_at REAL NOT NULL)"
            )
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)",
                (fingerprint, json.dumps(result.to_dict()), result.engine,
                 result.added_cost, int(result.optimal), _time.time()),
            )

    def test_legacy_rows_still_serve_exact_hits(self, tmp_path):
        result = _result()
        fingerprint = _fingerprint(result)
        path = tmp_path / "legacy.sqlite"
        self._legacy_db(path, result, fingerprint)

        store = ResultStore(path)
        served = store.get(fingerprint)
        assert served is not None
        assert served.added_cost == result.added_cost

    def test_migrated_file_records_job_fingerprints(self, tmp_path):
        from repro.service.fingerprint import coupling_fingerprint

        result = _result()
        path = tmp_path / "legacy.sqlite"
        self._legacy_db(path, result, _fingerprint(result))
        store = ResultStore(path)
        # Legacy rows keep NULL fingerprint columns; new writes on the
        # migrated file fill them, also for a fresh store instance.
        circuit_fp = result.original_circuit.fingerprint()
        arch_fp = coupling_fingerprint(ibm_qx4())
        store.put(
            job_fingerprint(result.original_circuit, ibm_qx4(), "sat", {}),
            result, circuit_fp=circuit_fp, arch_fp=arch_fp,
        )
        legacy, fresh = ResultStore(path).entries()
        assert (legacy["circuit_fp"], legacy["arch_fp"]) == (None, None)
        assert (fresh["circuit_fp"], fresh["arch_fp"]) == (circuit_fp, arch_fp)

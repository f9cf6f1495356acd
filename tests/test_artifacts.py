"""Tests for the fleet-wide solve-artifact cache (cross-job warm starts).

Covers the solve-artifact tier of :class:`repro.service.store.ResultStore`
and its consumers:

* store semantics — merge (clause union, per-orientation bound maximum),
  TTL expiry, prune sweep, corrupt-row handling, memory/disk tier
  interplay, pickling of the :class:`ArtifactCache` handle, and rows of the
  older layout that also carried a ``schedule`` / ``objective``,
* the *correctness invariant* — every clause persisted under a skeleton
  key is implied by a fresh same-key target instance (refutation via
  :func:`repro.exact.sweep.clause_is_implied`), and a warm sweep under
  ``REPRO_CHECK_IMPORTS=1`` runs clean,
* family closure — a warm variant whose stored bound meets DP's schedule
  closes without a solver call; a bound below the schedule or a schedule
  the encoding rejects does not close, and under ``REPRO_CHECK_IMPORTS=1``
  an overstated bound is caught,
* degradation — empty store, corrupt rows, shape-mismatched rows and
  wrong skeleton keys all fall back to the cold behaviour (same proven
  minima) with truthful provenance notes,
* the seed resolver's :meth:`BoundProviderChain.resolve_artifacts`
  plumbing, pipeline warm starts, and the service-level hit
  counters stamped into job provenance and ``MappingService.stats()``.
"""

import asyncio
import itertools
import json
import pickle
import sqlite3
import time
from pathlib import Path

import pytest

from repro.arch.coupling import CouplingMap
from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import benchmark_circuit, random_cnot_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import dp_schedule
from repro.exact.encoding import EncodingError, build_encoding, clear_skeleton_cache
from repro.exact import sat_mapper
from repro.exact.sat_mapper import SATMapper
from repro.exact.sweep import clause_is_implied, template_clause_remap
from repro.pipeline.bounds import BoundProviderChain
from repro.pipeline.pipeline import MappingPipeline
from repro.service.errors import StoreError
from repro.service.service import MappingService
from repro.service.store import (
    ARTIFACT_PAYLOAD_VERSION,
    ArtifactCache,
    MAX_ARTIFACT_CLAUSES,
    ResultStore,
)
from repro.sim.equivalence import mapped_circuit_equivalent
from repro.verify import verify_result

#: Minimal added cost of ham3_102 in a subset sweep on qx4.  Its DP-seeded
#: sweep still ends in a solver refutation that learns shared-layer
#: clauses, so it persists them (the paper example's families all close or
#: prune unsolved, and ex-1_166's refutation exports none).
HAM3_102_MINIMAL_COST = 16

#: The three artifact rows a cold ex-1_166 sweep on grid8 wrote in the
#: older row layout, which also stored each family's best schedule and its
#: objective (two rows hold one, the bound-only row ``null``).
ROWS_WITH_SCHEDULES = Path(__file__).parent / "data" / "artifact_rows_with_schedules.json"


def _payload(**overrides):
    """A small, valid artifact payload (vars 1..6: x block 4, spot block 2)."""
    payload = {
        "version": ARTIFACT_PAYLOAD_VERSION,
        "x_var_limit": 4,
        "spot_var_count": 2,
        "clauses": [[1, -2], [3, 4]],
        "bounds": {"[[0,1]]": 2},
    }
    payload.update(overrides)
    return payload


def _cold_run(store, circuit=None):
    """One subset sweep of ham3_102 on qx4, artifacts in *store*."""
    clear_skeleton_cache()
    return SATMapper(ibm_qx4(), use_subsets=True).map(
        circuit or benchmark_circuit("ham3_102"),
        artifacts=ArtifactCache(store),
    )


def _keep_only_clauses(store_path):
    """Keep every stored row's clauses but forget its bounds.

    A warm run over such a store has no stored bound to close a family on
    (DP's schedule still seeds it), so it solves, and imports the stored
    clauses into its sessions.
    """
    with sqlite3.connect(store_path) as conn:
        rows = conn.execute(
            "SELECT skeleton_key, payload FROM artifacts"
        ).fetchall()
        for key, payload in rows:
            data = json.loads(payload)
            data["bounds"] = {}
            conn.execute(
                "UPDATE artifacts SET payload = ? WHERE skeleton_key = ?",
                (json.dumps(data), key),
            )


# ----------------------------------------------------------------------
# Store tier
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_roundtrip_and_fresh_process_reopen(self, tmp_path):
        path = tmp_path / "artifacts.sqlite"
        store = ResultStore(path)
        store.put_artifact("key", _payload())
        assert store.get_artifact("key")["clauses"] == [[1, -2], [3, 4]]
        fresh = ResultStore(path)
        assert fresh.get_artifact("key")["bounds"] == {"[[0,1]]": 2}

    def test_memory_only_store_roundtrips(self):
        store = ResultStore()
        store.put_artifact("key", _payload())
        assert store.get_artifact("key") is not None
        assert store.stats()["artifact_puts"] == 1

    def test_merge_unions_clauses_and_maxes_bounds(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        store.put_artifact("key", _payload(bounds={"A": 2}))
        store.put_artifact(
            "key",
            _payload(clauses=[[1, -2], [5, 6]], bounds={"A": 1, "B": 7}),
        )
        merged = store.get_artifact("key")
        assert merged["clauses"] == [[1, -2], [3, 4], [5, 6]]
        # Both bounds are proven, so the higher one wins per orientation.
        assert merged["bounds"] == {"A": 2, "B": 7}

    def test_bound_only_merge_keeps_clause_block(self, tmp_path):
        """A bound-only harvest (e.g. from a pruned family) must not clobber
        a clause-bearing row even though its block boundaries disagree."""
        store = ResultStore(tmp_path / "a.sqlite")
        store.put_artifact("key", _payload())
        store.put_artifact(
            "key",
            _payload(
                x_var_limit=10, spot_var_count=0, clauses=[],
                bounds={"C": 9},
            ),
        )
        merged = store.get_artifact("key")
        assert merged["x_var_limit"] == 4
        assert merged["clauses"] == [[1, -2], [3, 4]]
        assert merged["bounds"]["C"] == 9

    def test_clause_union_is_capped(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        limit = MAX_ARTIFACT_CLAUSES
        big = [[1, -2, (3 if i % 2 else 4), (6 if i % 3 else 5)]
               for i in range(4)]
        store.put_artifact("key", _payload(clauses=[[1]] * 1))
        store.put_artifact("key", _payload(clauses=big))
        merged = store.get_artifact("key")
        assert len(merged["clauses"]) <= limit

    def test_invalid_payload_rejected_on_put(self):
        store = ResultStore()
        store.put_artifact("key", {"version": ARTIFACT_PAYLOAD_VERSION})
        assert store.get_artifact("key") is None
        stats = store.stats()
        assert stats["invalid_rejected"] == 1
        assert stats["artifact_puts"] == 0

    def test_corrupt_row_dropped_as_miss(self, tmp_path):
        path = tmp_path / "a.sqlite"
        store = ResultStore(path, max_memory_entries=0)
        store.put_artifact("key", _payload())
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE artifacts SET payload = ? WHERE skeleton_key = ?",
                ("{ not json", "key"),
            )
        assert store.get_artifact("key") is None
        assert store.stats()["artifact_corrupt_dropped"] == 1
        with sqlite3.connect(path) as conn:
            count = conn.execute("SELECT COUNT(*) FROM artifacts").fetchone()[0]
        assert count == 0  # the bad row is deleted, not served again

    def test_foreign_version_dropped_as_corrupt(self, tmp_path):
        path = tmp_path / "a.sqlite"
        store = ResultStore(path, max_memory_entries=0)
        store.put_artifact("key", _payload())
        newer = _payload(version=ARTIFACT_PAYLOAD_VERSION + 1)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE artifacts SET payload = ? WHERE skeleton_key = ?",
                (json.dumps(newer), "key"),
            )
        assert store.get_artifact("key") is None
        assert store.stats()["artifact_corrupt_dropped"] == 1

    def test_ttl_expires_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite", ttl_seconds=0.05)
        store.put_artifact("key", _payload())
        assert store.get_artifact("key") is not None
        time.sleep(0.15)
        assert store.get_artifact("key") is None
        assert store.stats()["artifact_expired_dropped"] >= 1

    def test_prune_report_covers_artifact_rows(self, tmp_path):
        path = tmp_path / "a.sqlite"
        store = ResultStore(path, max_memory_entries=0)
        store.put_artifact("old", _payload())
        store.put_artifact("new", _payload())
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE artifacts SET created_at = created_at - 1000 "
                "WHERE skeleton_key = 'old'"
            )
        report = store.prune_report(ttl_seconds=500)
        assert report["artifact_rows_pruned"] == 1
        assert report["artifact_bytes_reclaimed"] > 0
        assert store.get_artifact("old") is None
        assert store.get_artifact("new") is not None

    def test_stats_and_clear_cover_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        store.put_artifact("key", _payload())
        stats = store.stats()
        assert stats["artifact_rows"] == 1
        assert stats["artifact_bytes"] > 0
        store.clear()
        assert store.get_artifact("key") is None
        assert store.stats()["artifact_rows"] == 0

    def test_drop_memory_keeps_disk_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        store.put_artifact("key", _payload())
        store.drop_memory()
        assert store.get_artifact("key") is not None

    def test_drop_memory_keeps_memory_only_artifacts(self):
        # A memory-only store has no disk tier to re-read from; flushing
        # its artifact memory would silently lose fleet knowledge.
        store = ResultStore()
        store.put_artifact("key", _payload())
        store.drop_memory()
        assert store.get_artifact("key") is not None

    def test_artifact_cache_pickles_through_path(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        store.put_artifact("key", _payload())
        cache = pickle.loads(pickle.dumps(ArtifactCache(store)))
        assert cache.load("key")["clauses"] == [[1, -2], [3, 4]]
        cache.save("other", _payload())
        assert store.get_artifact("other") is not None

    def test_memory_only_cache_degrades_after_pickling(self):
        store = ResultStore()
        store.put_artifact("key", _payload())
        cache = pickle.loads(pickle.dumps(ArtifactCache(store)))
        # No path to re-open on the far side: seeding degrades to cold.
        assert cache.load("key") is None
        cache.save("key", _payload())  # silently dropped, never an error

    def test_unopenable_store_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError) as info:
            ResultStore(tmp_path)  # a directory, not a database file
        assert info.value.code == "store-error"

    def test_cache_whose_path_cannot_reopen_degrades(self, tmp_path):
        path = tmp_path / "a.sqlite"
        store = ResultStore(path)
        store.put_artifact("key", _payload())
        shipped = pickle.dumps(ArtifactCache(store))
        path.unlink()
        path.mkdir()  # the far side finds a directory where the file was
        cache = pickle.loads(shipped)
        assert cache.load("key") is None
        cache.save("key", _payload())  # dropped, never an error
        assert cache.load("key") is None


# ----------------------------------------------------------------------
# Correctness invariant: persisted clauses are implied at the target
# ----------------------------------------------------------------------
class TestImplicationProperty:
    def _populated_store(self, tmp_path):
        store = ResultStore(tmp_path / "artifacts.sqlite")
        cold = _cold_run(store)
        assert cold.added_cost == HAM3_102_MINIMAL_COST
        return store, cold

    def test_every_persisted_clause_is_implied_in_same_key_target(
        self, tmp_path
    ):
        """Property-style: for each artifact row, rebuild a fresh target
        instance of the same skeleton key and refute every clause."""
        store, _ = self._populated_store(tmp_path)
        with sqlite3.connect(store.path) as conn:
            keys = [
                row[0]
                for row in conn.execute("SELECT skeleton_key FROM artifacts")
            ]
        assert keys
        checked = 0
        for key in keys:
            gates, num_logical, num_physical, spots, undirected = (
                json.loads(key)
            )
            payload = store.get_artifact(key)
            assert payload is not None
            if not payload["clauses"]:
                continue
            # Any coupling with this undirected edge set instantiates the
            # same skeleton; the bidirectional completion is the adversarial
            # choice (maximally different edge block from the home device).
            coupling = CouplingMap(
                num_physical,
                [(a, b) for a, b in undirected]
                + [(b, a) for a, b in undirected],
            )
            clear_skeleton_cache()
            encoding = build_encoding(
                [tuple(gate) for gate in gates], num_logical, coupling,
                permutation_spots=spots,
            )
            assert payload["x_var_limit"] == encoding.x_var_limit
            assert payload["spot_var_count"] == (
                encoding.spot_var_end - encoding.spot_var_start
            )
            remap = template_clause_remap(
                payload["x_var_limit"], payload["spot_var_count"], encoding
            )
            for clause in payload["clauses"]:
                mapped = [
                    remap[abs(lit)] if lit > 0 else -remap[abs(lit)]
                    for lit in clause
                ]
                assert clause_is_implied(encoding.cnf, mapped), (
                    f"artifact clause {clause} not implied under key {key}"
                )
                checked += 1
        assert checked >= 1

    def test_warm_sweep_clean_under_import_checking(
        self, tmp_path, monkeypatch
    ):
        store, cold = self._populated_store(tmp_path)
        _keep_only_clauses(store.path)
        monkeypatch.setenv("REPRO_CHECK_IMPORTS", "1")
        # A second run over the same store is warm, and solves.
        warm = _cold_run(ResultStore(store.path, max_memory_entries=0))
        assert warm.added_cost == cold.added_cost
        assert warm.statistics["artifact_hits"] >= 1
        assert warm.statistics["artifact_clauses_imported"] >= 1
        # The headline of the whole exercise: strictly fewer conflicts.
        assert (
            warm.statistics["solver_conflicts"]
            < cold.statistics["solver_conflicts"]
        )


# ----------------------------------------------------------------------
# Closure: a stored bound that meets the seeded schedule ends the family
# ----------------------------------------------------------------------
def _grid8_skeleton():
    return random_cnot_circuit(3, 8, seed=8000)


def _with_singles(skeleton):
    """*skeleton*'s CNOTs in order, with single-qubit gates drawn around
    them — the same encoding skeleton, a different circuit."""
    circuit = QuantumCircuit(skeleton.num_qubits)
    for index, gate in enumerate(skeleton.cnot_gates()):
        if index % 3 == 0:
            circuit.h(gate.control)
        circuit.cx(gate.control, gate.target)
        if index % 4 == 1:
            circuit.t(gate.target)
    return circuit


def _grid8_job(store_path, circuit):
    """Map *circuit* through a grid8 SAT-sweep service over *store_path*."""

    async def scenario():
        async with MappingService(
            sweep_grid8(), engine="sat",
            engine_options={"use_subsets": True},
            store=ResultStore(store_path, max_memory_entries=0),
        ) as service:
            job = await service.submit(circuit)
            return await service.result(job, timeout=120)

    return asyncio.run(scenario())


def _rewrite_bounds(store_path, rewrite):
    """Replace every stored bound by *rewrite(skeleton key, edges, bound)*."""
    with sqlite3.connect(store_path) as conn:
        rows = conn.execute(
            "SELECT skeleton_key, payload FROM artifacts"
        ).fetchall()
        rewritten = 0
        for key, payload in rows:
            data = json.loads(payload)
            for edges, bound in data["bounds"].items():
                data["bounds"][edges] = rewrite(key, edges, bound)
                rewritten += 1
            conn.execute(
                "UPDATE artifacts SET payload = ? WHERE skeleton_key = ?",
                (json.dumps(data), key),
            )
    assert rewritten >= 1


def _costlier_schedule(coupling, num_logical, gates, spots):
    """A stand-in for :func:`dp_schedule` that returns a schedule above the
    minimum, at its true cost: DP's schedule with the first single mapping
    change the family's encoding costs higher."""
    mappings, objective, transitions = dp_schedule(
        coupling, num_logical, gates, spots
    )
    encoding = build_encoding(
        list(gates), num_logical, coupling, permutation_spots=list(spots)
    )
    placements = itertools.permutations(range(coupling.num_qubits), num_logical)
    for mapping, k in itertools.product(placements, range(len(mappings))):
        candidate = list(mappings)
        candidate[k] = mapping
        try:
            cost = encoding.schedule_objective(candidate)
        except EncodingError:
            continue
        if cost > objective:
            return candidate, cost, transitions
    raise AssertionError("no costlier variant of DP's schedule")


class TestFamilyClosure:
    def _cold_then_warm(self, tmp_path, tamper=None):
        """Map the skeleton cold, call *tamper(store path)*, then map its
        warm variant over the same store."""
        skeleton = _grid8_skeleton()
        path = tmp_path / "results.sqlite"
        cold = _grid8_job(path, skeleton)
        if tamper is not None:
            tamper(path)
        variant = _with_singles(skeleton)
        warm = _grid8_job(path, variant)
        assert warm.added_cost == cold.added_cost
        assert verify_result(warm, sweep_grid8()).compliant
        assert mapped_circuit_equivalent(
            variant, warm.mapped_circuit,
            warm.initial_mapping, warm.final_mapping,
        )
        return cold, warm

    def test_warm_variant_closes_without_a_solver_call(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
        cold, warm = self._cold_then_warm(tmp_path)
        assert cold.statistics["solver_conflicts"] > 0
        assert cold.statistics["families_closed"] == 0
        assert warm.statistics["solver_conflicts"] == 0
        assert warm.statistics["solver_iterations"] == 0
        assert warm.statistics["families_closed"] >= 1

    def test_bound_below_the_schedule_cost_does_not_close(
        self, tmp_path, monkeypatch
    ):
        """A solved family stores its optimum, which DP's schedule costs, so
        one less than every stored bound is below every seed."""
        monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
        _, warm = self._cold_then_warm(
            tmp_path,
            tamper=lambda path: _rewrite_bounds(
                path, lambda key, edges, bound: bound - 1
            ),
        )
        assert warm.statistics["families_closed"] == 0
        assert warm.statistics["solver_iterations"] >= 1
        assert warm.statistics["solver_conflicts"] > 0

    def test_schedule_the_encoding_rejects_does_not_close(
        self, tmp_path, monkeypatch
    ):
        """A schedule one gate short would meet the stored bound (the
        missing gate costs nothing) but cannot be a model of the encoding,
        so it seeds nothing."""
        monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)

        def truncated(coupling, num_logical, gates, spots):
            mappings, objective, transitions = dp_schedule(
                coupling, num_logical, gates, spots
            )
            return mappings[:-1], objective, transitions

        _, warm = self._cold_then_warm(
            tmp_path,
            tamper=lambda path: monkeypatch.setattr(
                sat_mapper, "dp_schedule", truncated
            ),
        )
        assert warm.statistics["families_dp_seeded"] == 0
        assert warm.statistics["families_closed"] == 0
        assert warm.statistics["solver_conflicts"] > 0

    def test_import_checking_refutes_an_overstated_bound(
        self, tmp_path, monkeypatch
    ):
        """A costlier seed beside a bound raised to its cost would close a
        family above its true minimum; the checking probe must catch it.

        DP's schedule is each family's exact minimum, so the warm run swaps
        in a costlier schedule at its true cost (:func:`_costlier_schedule`)
        and every stored bound is raised to that schedule's cost."""
        monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
        skeleton = _grid8_skeleton()
        store = ResultStore(tmp_path / "a.sqlite", max_memory_entries=0)
        clear_skeleton_cache()
        SATMapper(sweep_grid8(), use_subsets=True).map(
            skeleton, artifacts=ArtifactCache(store)
        )

        def seed_cost(key, edges, bound):
            gates, num_logical, num_physical, spots, _ = json.loads(key)
            coupling = CouplingMap(num_physical, json.loads(edges))
            gates = [tuple(gate) for gate in gates]
            return _costlier_schedule(coupling, num_logical, gates, spots)[1]

        _rewrite_bounds(store.path, seed_cost)
        monkeypatch.setattr(sat_mapper, "dp_schedule", _costlier_schedule)
        monkeypatch.setenv("REPRO_CHECK_IMPORTS", "1")
        clear_skeleton_cache()
        with pytest.raises(AssertionError, match="family closed at cost"):
            SATMapper(sweep_grid8(), use_subsets=True).map(
                _with_singles(skeleton),
                artifacts=ArtifactCache(
                    ResultStore(store.path, max_memory_entries=0)
                ),
            )


# ----------------------------------------------------------------------
# Degradation: every bad input falls back to cold behaviour
# ----------------------------------------------------------------------
class TestDegradation:
    def test_empty_store_matches_cold_solving(self, tmp_path):
        clear_skeleton_cache()
        bare = SATMapper(ibm_qx4(), use_subsets=True).map(
            benchmark_circuit("ham3_102")
        )
        seeded = _cold_run(ResultStore(tmp_path / "a.sqlite"))
        assert seeded.added_cost == bare.added_cost
        assert (
            seeded.statistics["solver_conflicts"]
            == bare.statistics["solver_conflicts"]
        )
        assert seeded.statistics["artifact_hits"] == 0
        assert seeded.statistics["artifact_misses"] >= 1
        assert seeded.statistics["artifact_seeding"] == 1
        assert bare.statistics["artifact_seeding"] == 0

    def test_corrupt_rows_degrade_to_cold(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite", max_memory_entries=0)
        cold = _cold_run(store)
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE artifacts SET payload = '!corrupt!'")
        second = _cold_run(ResultStore(store.path, max_memory_entries=0))
        assert second.added_cost == cold.added_cost
        assert second.statistics["artifact_hits"] == 0
        assert second.statistics["artifact_clauses_imported"] == 0

    def test_shape_mismatch_degrades_to_bound_only_with_note(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite", max_memory_entries=0)
        cold = _cold_run(store)
        with sqlite3.connect(store.path) as conn:
            rows = conn.execute(
                "SELECT skeleton_key, payload FROM artifacts"
            ).fetchall()
            for key, payload in rows:
                data = json.loads(payload)
                # No stored bound to close on: the warm run solves.
                data["bounds"] = {}
                if data["clauses"]:
                    data["x_var_limit"] += 1  # foreign block boundary
                conn.execute(
                    "UPDATE artifacts SET payload = ? "
                    "WHERE skeleton_key = ?",
                    (json.dumps(data), key),
                )
        warm = _cold_run(ResultStore(store.path, max_memory_entries=0))
        assert warm.added_cost == cold.added_cost
        assert warm.statistics["artifact_clauses_imported"] == 0
        notes = warm.statistics.get("artifact_notes", [])
        assert any("bound-only seeding" in note for note in notes)

    def test_wrong_skeleton_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        _cold_run(store)
        # A structurally different circuit shares no skeleton key with
        # ham3_102, so the populated store contributes nothing.
        different = paper_example_cnot_skeleton().copy()
        control, target = different.cnot_pairs()[0]
        different.cx(control, target)
        warm = _cold_run(store, circuit=different)
        assert warm.statistics["artifact_hits"] == 0
        assert warm.statistics["artifact_misses"] >= 1


# ----------------------------------------------------------------------
# Rows of the older layout, which also stored a schedule and its objective
# ----------------------------------------------------------------------
class TestRowsWithSchedules:
    def _store(self, tmp_path, keep_bounds=True):
        """A store holding the older rows exactly as they were written."""
        path = tmp_path / "a.sqlite"
        ResultStore(path)  # creates the tables
        rows = json.loads(ROWS_WITH_SCHEDULES.read_text())
        with sqlite3.connect(path) as conn:
            for key, payload in rows:
                if not keep_bounds:
                    payload["bounds"] = {}
                conn.execute(
                    "INSERT INTO artifacts (skeleton_key, payload, created_at) "
                    "VALUES (?, ?, ?)",
                    (key, json.dumps(payload), time.time()),
                )
        return ResultStore(path, max_memory_entries=0), rows

    def _warm(self, store):
        clear_skeleton_cache()
        return SATMapper(sweep_grid8(), use_subsets=True).map(
            benchmark_circuit("ex-1_166"), artifacts=ArtifactCache(store)
        )

    def test_rows_still_decode(self, tmp_path):
        store, rows = self._store(tmp_path)
        assert sum(payload["schedule"] is not None for _, payload in rows) == 2
        for key, payload in rows:
            assert store.get_artifact(key) == payload
        assert store.stats()["artifact_corrupt_dropped"] == 0

    def test_a_merge_drops_the_unread_keys(self, tmp_path):
        store, rows = self._store(tmp_path)
        key, payload = next(
            (key, payload) for key, payload in rows if payload["schedule"] is not None
        )
        store.put_artifact(key, {
            "x_var_limit": payload["x_var_limit"],
            "spot_var_count": payload["spot_var_count"],
            "clauses": [],
            "bounds": {"[[9,9]]": 1},
        })
        merged = store.get_artifact(key)
        assert "schedule" not in merged and "objective" not in merged
        assert merged["clauses"] == payload["clauses"]
        assert merged["bounds"] == {**payload["bounds"], "[[9,9]]": 1}
        assert merged["version"] == payload["version"]

    def test_bounds_close_a_warm_sweep_without_conflicts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
        store, _ = self._store(tmp_path)
        warm = self._warm(store)
        assert warm.added_cost == 15
        assert warm.statistics["solver_conflicts"] == 0
        assert warm.statistics["artifact_hits"] == 3
        assert warm.statistics["artifact_bounds_used"] == 3
        assert warm.statistics["families_closed"] == 2

    def test_clauses_are_imported(self, tmp_path):
        store, _ = self._store(tmp_path, keep_bounds=False)
        warm = self._warm(store)
        assert warm.added_cost == 15
        assert warm.statistics["artifact_clauses_imported"] >= 1
        assert "artifact_notes" not in warm.statistics


# ----------------------------------------------------------------------
# Providers, pipeline and service plumbing
# ----------------------------------------------------------------------
class TestProvidersAndService:
    def test_clause_provider_offers_picklable_cache(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        cache = BoundProviderChain(store).resolve_artifacts()
        assert isinstance(cache, ArtifactCache)
        assert pickle.loads(pickle.dumps(cache)).path == cache.path
        assert BoundProviderChain().resolve_artifacts() is None

    def test_pipeline_second_run_is_warm(self, tmp_path):
        circuit = paper_example_cnot_skeleton()
        store = ResultStore(tmp_path / "a.sqlite")
        options = {"use_subsets": True}
        runs = []
        for _ in range(2):
            clear_skeleton_cache()
            runs.append(MappingPipeline(
                ibm_qx4(), engine="sat", engine_options=options, workers=4,
                seeds=BoundProviderChain(store),
            ).map(circuit))
        cold, warm = runs
        assert cold.added_cost == warm.added_cost
        assert cold.statistics["artifact_seeding"] == 1
        assert warm.statistics["artifact_seeding"] == 1
        # The second run is warm from the first run's harvest.
        assert warm.statistics["artifact_hits"] >= 1

    def test_service_stamps_artifact_provenance_and_stats(self, tmp_path):
        async def scenario():
            circuit = benchmark_circuit("ham3_102")
            store = ResultStore(
                tmp_path / "a.sqlite", max_memory_entries=0
            )
            async with MappingService(
                ibm_qx4(), engine="sat",
                engine_options={"use_subsets": True}, store=store,
            ) as service:
                first = await service.submit(circuit)
                cold = await service.result(first, timeout=120)
                cold_provenance = service.status(first)["provenance"]
                fingerprint = service.status(first)["fingerprint"]
                # Forget the *result* and the stored bounds (clauses
                # survive): the resubmit re-solves but
                # warm-starts from the artifact tier.
                assert store.delete(fingerprint)
                _keep_only_clauses(store.path)
                second = await service.submit(circuit)
                warm = await service.result(second, timeout=120)
                warm_provenance = service.status(second)["provenance"]
                return cold, cold_provenance, warm, warm_provenance, (
                    service.stats()
                )

        cold, cold_prov, warm, warm_prov, stats = asyncio.run(scenario())
        assert cold.added_cost == warm.added_cost == HAM3_102_MINIMAL_COST
        assert cold_prov["artifact_misses"] >= 1
        assert warm_prov["cache_hit"] is False
        assert warm_prov["artifact_hits"] >= 1
        assert warm_prov["artifact_clauses_imported"] >= 1
        assert (
            warm.statistics["solver_conflicts"]
            < cold.statistics["solver_conflicts"]
        )
        totals = stats["artifact_seeding"]
        assert totals["artifact_hits"] >= 1
        assert totals["artifact_misses"] >= 1
        assert stats["store"]["artifact_rows"] >= 1


class TestBudgetedProofAcrossJobs:
    def test_stored_clauses_finish_a_proof_the_budget_cut(self, tmp_path):
        # The one thing stored learned clauses buy: a family whose proof a
        # conflict budget cut short is proven by the next job, which
        # imports the clauses the first one stored.  Without the import
        # the second job ends unproven at the budget too.
        clear_skeleton_cache()
        artifacts = ArtifactCache(ResultStore(tmp_path / "a.sqlite"))
        circuit = benchmark_circuit("4gt11_84")
        jobs = [
            SATMapper(ibm_qx4(), conflict_limit=200).map(
                circuit, artifacts=artifacts
            )
            for _ in range(2)
        ]
        first, second = (
            (
                job.added_cost,
                job.optimal,
                job.statistics["solver_conflicts"],
                job.statistics["artifact_clauses_imported"],
            )
            for job in jobs
        )
        assert first == (11, False, 200, 0)
        assert second == (11, True, 188, 2)

"""Tests for the seed resolver and its pipeline/service wiring."""

import asyncio
import os

import pytest

from repro.arch.coupling import CouplingMap
from repro.arch.devices import ibm_qx4
from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_cnot_skeleton,
)
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.exact import sat_mapper
from repro.pipeline.bounds import BoundProviderChain, is_sub_architecture
from repro.pipeline.pipeline import MappingPipeline
from repro.service.fingerprint import coupling_fingerprint, job_fingerprint
from repro.service.service import MappingService
from repro.service.store import ResultStore


def _paper_circuit():
    return paper_example_cnot_skeleton()


def _closure_probes():
    """Solver calls of a closed family: 0, or 1 re-proving it when checked."""
    return 1 if os.environ.get("REPRO_CHECK_IMPORTS") else 0


def _stored_dp_result(store, circuit, coupling, engine="dp"):
    """Solve with DP and persist the result with full fingerprint metadata."""
    result = DPMapper(coupling).map(circuit)
    fingerprint = job_fingerprint(circuit, coupling, engine, {})
    store.put(
        fingerprint, result,
        circuit_fp=circuit.fingerprint(),
        arch_fp=coupling_fingerprint(coupling),
    )
    return result, fingerprint


class TestProviders:
    def test_static_provider(self):
        resolution = BoundProviderChain(upper_bound=7).resolve_seed(
            _paper_circuit(), ibm_qx4()
        )
        assert resolution.bound == 7
        assert resolution.provider == "static"

    def test_static_provider_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundProviderChain(upper_bound=-1)

    def test_store_provider_same_architecture(self):
        store = ResultStore()
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        seeds = BoundProviderChain(store, seed_models=False)
        resolution = seeds.resolve_seed(circuit, ibm_qx4())
        assert resolution.bound == result.added_cost
        assert resolution.provider == "store"
        other = QuantumCircuit(2)
        other.cx(0, 1)
        assert seeds.resolve_seed(other, ibm_qx4()).bound is None

    def test_chain_keeps_tightest_bound(self):
        store = ResultStore()
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        seeds = BoundProviderChain(
            store, upper_bound=result.added_cost + 10, seed_models=False
        )
        resolution = seeds.resolve_seed(circuit, ibm_qx4())
        assert resolution.bound == result.added_cost
        assert resolution.provider == "store"

    def test_chain_with_no_information(self):
        resolution = BoundProviderChain(ResultStore()).resolve_seed(
            _paper_circuit(), ibm_qx4()
        )
        assert resolution.bound is None and resolution.provider is None
        assert resolution.model is None and resolution.notes == []


class TestSubArchitectures:
    def _line(self):
        return CouplingMap(3, [(0, 1), (1, 2)], name="line3")

    def _extended(self):
        # The line plus an extra qubit and couplings: a strict super-graph.
        return CouplingMap(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="ring4")

    def test_is_sub_architecture(self):
        assert is_sub_architecture(self._line(), self._extended())
        assert not is_sub_architecture(self._extended(), self._line())
        # Same qubit count but a non-subset edge is not a sub-architecture.
        rotated = CouplingMap(3, [(1, 0), (1, 2)])
        assert not is_sub_architecture(rotated, self._line())

    def test_store_bound_from_sub_architecture(self):
        store = ResultStore()
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        line = self._line()
        result, _ = _stored_dp_result(store, circuit, line)
        # Nothing stored for the big device itself, but the line result is a
        # valid mapping on the super-graph, so its cost seeds the bound.
        seeds = BoundProviderChain(store, couplings=[line], seed_models=False)
        assert seeds.resolve_seed(
            circuit, self._extended()
        ).bound == result.added_cost
        # Without the sub-architecture hint the store has nothing to offer.
        assert BoundProviderChain(store).resolve_seed(
            circuit, self._extended()
        ).bound is None


class TestPipelineSeeding:
    def test_sat_map_is_seeded_from_store(self):
        store = ResultStore()
        circuit = _paper_circuit()
        dp_result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(store, seed_models=False),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == dp_result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal
        assert result.statistics["seeded_upper_bound"] == dp_result.added_cost
        assert result.statistics["bound_provider"] == "store"
        assert result.statistics["external_bound"] == dp_result.added_cost

    def test_seeded_solve_uses_fewer_iterations(self, monkeypatch):
        # Beyond DP's state limit the SAT descent starts cold, so the
        # store's bound is what shortens it (within the limit DP's schedule
        # already starts it at the minimum).
        monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
        store = ResultStore()
        circuit = _paper_circuit()
        _stored_dp_result(store, circuit, ibm_qx4())
        unseeded = MappingPipeline(ibm_qx4(), engine="sat").map(circuit)
        seeded = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(store, seed_models=False),
        ).map(circuit)
        assert seeded.added_cost == unseeded.added_cost
        assert (
            seeded.statistics["solver_iterations"]
            < unseeded.statistics["solver_iterations"]
        )

    def test_restricted_strategies_are_not_seeded(self):
        # An externally derived bound may undercut a restricted search
        # space's own minimum; such engines must be mapped unseeded.
        store = ResultStore()
        circuit = _paper_circuit()
        _stored_dp_result(store, circuit, ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            engine_options={"strategy": "odd"},
            seeds=BoundProviderChain(store, seed_models=False),
        )
        result = pipeline.map(circuit)
        assert "seeded_upper_bound" not in result.statistics
        assert "external_bound" not in result.statistics

    def test_subset_mode_is_not_seeded(self):
        store = ResultStore()
        circuit = _paper_circuit()
        _stored_dp_result(store, circuit, ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            engine_options={"use_subsets": True},
            seeds=BoundProviderChain(store, seed_models=False),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert "external_bound" not in result.statistics

    def test_portfolio_accepts_external_bound(self):
        store = ResultStore()
        circuit = _paper_circuit()
        dp_result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="portfolio",
            seeds=BoundProviderChain(store, seed_models=False),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == dp_result.added_cost
        # The stored exact bound is tighter than the heuristic's, so it wins.
        assert result.statistics["portfolio_bound"] == dp_result.added_cost
        assert result.statistics["portfolio_external_bound"] == dp_result.added_cost

    def test_map_many_seeds_each_item(self):
        store = ResultStore()
        circuits = [_paper_circuit(), _paper_circuit()]
        dp_result, _ = _stored_dp_result(store, circuits[0], ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(store, seed_models=False),
        )
        items = pipeline.map_many(circuits, workers=2)
        assert all(item.ok for item in items)
        for item in items:
            assert item.result.added_cost == dp_result.added_cost
            assert item.result.statistics["external_bound"] == dp_result.added_cost


class TestServiceBoundSeeding:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_resubmit_after_cleared_entry_is_reseeded(self):
        async def scenario():
            circuit = _paper_circuit()
            store = ResultStore()
            async with MappingService(ibm_qx4(), engine="dp", store=store) as service:
                dp_job = await service.submit(circuit)
                dp_result = await service.result(dp_job)

                sat_job = await service.submit(circuit, engine="sat")
                await service.result(sat_job)
                sat_fp = service.status(sat_job)["fingerprint"]

                # Clear the solved SAT entry, resubmit: the job must solve
                # again (no cache hit) but the seed resolver still
                # seeds its bound from the DP row of the same circuit.
                assert store.delete(sat_fp)
                resubmit = await service.submit(circuit, engine="sat")
                result = await service.result(resubmit)
                provenance = service.status(resubmit)["provenance"]
                assert provenance["cache_hit"] is False
                assert provenance["seeded_bound"] == dp_result.added_cost
                # The service replays stored schedules by default, which
                # names the bound's provider "model".
                assert provenance["bound_provider"] == "model"
                assert result.added_cost == dp_result.added_cost
                assert result.statistics["seeded_upper_bound"] == dp_result.added_cost
                return result

        result = self._run(scenario())
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST

    def test_seeding_can_be_disabled(self):
        async def scenario():
            circuit = _paper_circuit()
            store = ResultStore()
            async with MappingService(
                ibm_qx4(), engine="dp", store=store, seed_bounds=False
            ) as service:
                await service.result(await service.submit(circuit))
                sat_job = await service.submit(circuit, engine="sat")
                await service.result(sat_job)
                return service.status(sat_job)["provenance"]

        provenance = self._run(scenario())
        assert "seeded_bound" not in provenance

    def test_cross_engine_warm_start_on_first_sat_submit(self):
        async def scenario():
            circuit = _paper_circuit()
            store = ResultStore()
            async with MappingService(ibm_qx4(), engine="dp", store=store) as service:
                dp_result = await service.result(await service.submit(circuit))
                sat_job = await service.submit(circuit, engine="sat")
                sat_result = await service.result(sat_job)
                provenance = service.status(sat_job)["provenance"]
                assert provenance["seeded_bound"] == dp_result.added_cost
                assert sat_result.added_cost == dp_result.added_cost
                return sat_result

        result = self._run(scenario())
        assert result.statistics["solver_iterations"] <= 2


class TestModelProvider:
    """Schedule replay: the cached mapping itself becomes the incumbent."""

    def test_best_result_returns_cheapest_schedule(self):
        store = ResultStore()
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        fetched = store.best_result(
            circuit.fingerprint(), coupling_fingerprint(ibm_qx4())
        )
        assert fetched is not None
        assert fetched.added_cost == result.added_cost
        assert fetched.schedule.mappings == result.schedule.mappings

    def test_best_result_persists_across_store_instances(self, tmp_path):
        path = tmp_path / "results.sqlite"
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(ResultStore(path), circuit, ibm_qx4())
        fresh = ResultStore(path, max_memory_entries=0)
        fetched = fresh.best_result(
            circuit.fingerprint(), coupling_fingerprint(ibm_qx4())
        )
        assert fetched is not None
        assert fetched.schedule.mappings == result.schedule.mappings

    def test_best_result_misses_cleanly(self):
        assert ResultStore().best_result("nope", "nothere") is None

    def test_model_seed_from_same_architecture(self):
        store = ResultStore()
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        resolution = BoundProviderChain(store).resolve_seed(circuit, ibm_qx4())
        seed = resolution.model
        assert resolution.notes == []
        assert resolution.bound == result.added_cost
        assert resolution.provider == "model"
        assert seed is not None
        assert seed.objective == result.added_cost
        assert seed.source_arch == "same"
        assert list(seed.mappings) == [tuple(m) for m in result.schedule.mappings]

    def test_model_seed_from_sub_architecture_when_schedule_transfers(self):
        # The induced triangle {0,1,2} of QX4 is a sub-architecture under
        # identity labelling, so its schedules run unchanged on the device.
        store = ResultStore()
        qx4 = ibm_qx4()
        triangle = qx4.subgraph((0, 1, 2))
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        result, _ = _stored_dp_result(store, circuit, triangle)
        resolution = BoundProviderChain(
            store, couplings=[triangle]
        ).resolve_seed(circuit, qx4)
        seed = resolution.model
        assert seed is not None
        assert seed.source_arch == "sub-architecture"
        assert seed.objective == result.added_cost
        assert resolution.bound == result.added_cost
        assert resolution.notes == []

    def test_model_seed_prefers_cheapest_validating_schedule(self):
        # A same-arch row AND a cheaper sub-arch row whose schedule
        # transfers: the cheaper one must win, not the first-preference one.
        store = ResultStore()
        qx4 = ibm_qx4()
        triangle = qx4.subgraph((0, 1, 2))
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        sub_result, _ = _stored_dp_result(store, circuit, triangle)
        # Fabricate a costlier same-arch row (validation off lets us store
        # a result whose claimed breakdown is higher than optimal).
        import dataclasses

        worse = DPMapper(qx4).map(circuit)
        worse.cost = dataclasses.replace(worse.cost, swaps=worse.cost.swaps + 2)
        lenient = ResultStore(validate=False)
        for row in (worse,):
            lenient.put(
                job_fingerprint(circuit, qx4, "dp", {"padded": True}), row,
                circuit_fp=circuit.fingerprint(),
                arch_fp=coupling_fingerprint(qx4),
            )
        # Merge the two stores' rows into one provider view.
        _stored_dp_result(lenient, circuit, triangle)
        resolution = BoundProviderChain(
            lenient, couplings=[triangle]
        ).resolve_seed(circuit, qx4)
        seed = resolution.model
        assert seed is not None
        assert seed.objective == sub_result.added_cost
        assert seed.source_arch == "sub-architecture"
        assert resolution.notes == []

    def test_invalid_cached_schedule_falls_back_to_bound_with_note(self):
        store = ResultStore(validate=False)  # allow the corrupt row in
        circuit = _paper_circuit()
        result, fingerprint = _stored_dp_result(store, circuit, ibm_qx4())
        # Corrupt the schedule: put a CNOT on an uncoupled pair. The cost
        # row still serves as a bound, but the schedule must not be
        # replayed as a model.
        corrupt = DPMapper(ibm_qx4()).map(circuit)
        corrupt.schedule.mappings = [
            (0, 3, 1, 4) for _ in corrupt.schedule.mappings
        ]
        store.put(
            fingerprint, corrupt,
            circuit_fp=circuit.fingerprint(),
            arch_fp=coupling_fingerprint(ibm_qx4()),
        )
        # The resolver degrades to bound-only seeding and says why.
        resolution = BoundProviderChain(store).resolve_seed(circuit, ibm_qx4())
        assert resolution.bound == result.added_cost
        assert resolution.provider == "model"
        assert resolution.model is None
        assert len(resolution.notes) == 1
        assert "does not comply" in resolution.notes[0]

    def test_chain_drops_model_worse_than_bound(self):
        store = ResultStore()
        circuit = _paper_circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        seeds = BoundProviderChain(store, upper_bound=result.added_cost - 1)
        resolution = seeds.resolve_seed(circuit, ibm_qx4())
        assert resolution.bound == result.added_cost - 1
        assert resolution.provider == "static"
        assert resolution.model is None
        assert any("worse than the resolved bound" in n for n in resolution.notes)

    def test_pipeline_model_seeding_end_to_end(self):
        store = ResultStore()
        circuit = _paper_circuit()
        dp_result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(store),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == dp_result.added_cost
        assert result.optimal
        assert result.statistics["seeded_model_objective"] == dp_result.added_cost
        assert result.statistics["model_provider"] == "model"
        # No solver call: the cached schedule meets the structural lower
        # bound, so it closes the only family as optimal (under
        # REPRO_CHECK_IMPORTS the closure is re-proved by one probe).
        assert result.statistics.get("descent_iterations", 0) == 0
        assert result.statistics["solver_iterations"] == _closure_probes()
        assert result.statistics["families_closed"] == 1


class _CountingStore(ResultStore):
    """A result store that counts its bound-oracle reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = {"best_added_cost": 0, "best_result": 0}

    def best_added_cost(self, circuit_fp, arch_fp):
        self.reads["best_added_cost"] += 1
        return super().best_added_cost(circuit_fp, arch_fp)

    def best_result(self, circuit_fp, arch_fp):
        self.reads["best_result"] += 1
        return super().best_result(circuit_fp, arch_fp)


class TestOneStoreReadPerArchitecture:
    """A job reads each consulted architecture's rows exactly once."""

    def _circuit(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        return circuit

    def test_model_seeded_target_only(self):
        store = _CountingStore()
        circuit = self._circuit()
        result, _ = _stored_dp_result(store, circuit, ibm_qx4())
        resolution = BoundProviderChain(store).resolve_seed(circuit, ibm_qx4())
        assert resolution.model is not None
        assert resolution.bound == result.added_cost
        assert store.reads == {"best_added_cost": 0, "best_result": 1}

    def test_model_seeded_with_sub_architecture(self):
        store = _CountingStore()
        qx4 = ibm_qx4()
        triangle = qx4.subgraph((0, 1, 2))
        circuit = self._circuit()
        result, _ = _stored_dp_result(store, circuit, triangle)
        seeds = BoundProviderChain(store, couplings=[qx4, triangle])
        resolution = seeds.resolve_seed(circuit, qx4)
        assert resolution.model is not None
        assert resolution.model.source_arch == "sub-architecture"
        assert resolution.bound == result.added_cost
        # The target and the triangle; qx4 itself is registered too but
        # is the target, so it is read once.
        assert store.reads == {"best_added_cost": 0, "best_result": 2}

    def test_bound_only_reads_costs(self):
        store = _CountingStore()
        qx4 = ibm_qx4()
        triangle = qx4.subgraph((0, 1, 2))
        circuit = self._circuit()
        _stored_dp_result(store, circuit, triangle)
        for seeds, replay_model in (
            (BoundProviderChain(store, couplings=[triangle]), False),
            (BoundProviderChain(
                store, couplings=[triangle], seed_models=False
            ), True),
        ):
            store.reads.update(best_added_cost=0, best_result=0)
            resolution = seeds.resolve_seed(circuit, qx4, replay_model)
            assert resolution.model is None
            assert resolution.bound is not None
            assert store.reads == {"best_added_cost": 2, "best_result": 0}

    def test_disabled_store_bounds_read_nothing(self):
        store = _CountingStore()
        circuit = self._circuit()
        _stored_dp_result(store, circuit, ibm_qx4())
        resolution = BoundProviderChain(store, seed_bounds=False).resolve_seed(
            circuit, ibm_qx4()
        )
        assert resolution.bound is None
        assert store.reads == {"best_added_cost": 0, "best_result": 0}


class TestServiceModelSeeding:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_resubmission_replays_cached_schedule_as_incumbent(self):
        """Acceptance: store-cached schedule => zero descent iterations."""

        async def scenario():
            circuit = _paper_circuit()
            store = ResultStore()
            async with MappingService(ibm_qx4(), engine="sat", store=store) as service:
                # A DP solve leaves a (circuit_fp, arch_fp)-keyed row whose
                # schedule any later exact solve of the same circuit can
                # replay, regardless of engine/options fingerprints.
                dp_job = await service.submit(circuit, engine="dp")
                first_result = await service.result(dp_job)

                sat_job = await service.submit(circuit)
                await service.result(sat_job)
                # Clear the exact SAT fingerprint so the resubmission must
                # solve again; the DP row of the same circuit remains and
                # is found via (circuit_fp, arch_fp).
                fingerprint = service.status(sat_job)["fingerprint"]
                assert store.delete(fingerprint)
                resubmit = await service.submit(circuit)
                result = await service.result(resubmit)
                provenance = service.status(resubmit)["provenance"]
                assert provenance["cache_hit"] is False
                assert provenance["seeded_model"] == first_result.added_cost
                assert provenance["model_provider"] == "model"
                return first_result, result

        first_result, result = self._run(scenario())
        assert result.added_cost == first_result.added_cost
        assert result.optimal
        assert result.statistics.get("descent_iterations", 0) == 0
        assert result.statistics["solver_iterations"] == _closure_probes()
        assert result.statistics["families_closed"] == 1
        assert result.statistics["model_seeded"] == 1

    def test_model_seeding_can_be_disabled_separately(self):
        async def scenario():
            circuit = _paper_circuit()
            store = ResultStore()
            async with MappingService(
                ibm_qx4(), engine="sat", store=store, seed_models=False
            ) as service:
                dp_job = await service.submit(circuit, engine="dp")
                await service.result(dp_job)
                sat_job = await service.submit(circuit)
                result = await service.result(sat_job)
                provenance = service.status(sat_job)["provenance"]
                # Bound seeding still works; model seeding does not.
                assert provenance["seeded_bound"] == result.added_cost
                assert "seeded_model" not in provenance
                return result

        result = self._run(scenario())
        assert "model_seeded" not in result.statistics

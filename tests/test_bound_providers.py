"""Tests for the seed resolver and its pipeline/service wiring."""

import asyncio

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_cnot_skeleton,
)
from repro.exact import sat_mapper
from repro.exact.dp_mapper import DPMapper
from repro.exact.sat_mapper import SATMapper
from repro.pipeline.bounds import BoundProviderChain
from repro.pipeline.pipeline import MappingPipeline
from repro.service.service import MappingService
from repro.service.store import ResultStore


def _paper_circuit():
    return paper_example_cnot_skeleton()


def _dp_bound(circuit):
    """DP's minimum on qx4: a valid caller bound for any exact solve."""
    return DPMapper(ibm_qx4()).map(circuit).added_cost


class TestProviders:
    def test_static_provider(self):
        resolution = BoundProviderChain(upper_bound=7).resolve_seed()
        assert resolution.bound == 7

    def test_static_provider_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundProviderChain(upper_bound=-1)

    def test_chain_with_no_information(self):
        seeds = BoundProviderChain(ResultStore())
        assert seeds.resolve_seed().bound is None
        assert BoundProviderChain().resolve_artifacts() is None


class TestPipelineSeeding:
    def test_sat_map_is_seeded_from_caller_bound(self):
        circuit = _paper_circuit()
        bound = _dp_bound(circuit)
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(upper_bound=bound),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == bound == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal
        assert result.statistics["seeded_upper_bound"] == bound
        assert result.statistics["external_bound"] == bound

    def test_seeded_solve_uses_fewer_iterations(self, monkeypatch):
        # Beyond DP's state limit the SAT descent starts cold, so the
        # caller's bound is what shortens it (within the limit DP's
        # schedule already starts it at the minimum).
        monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
        circuit = _paper_circuit()
        bound = _dp_bound(circuit)
        unseeded = MappingPipeline(ibm_qx4(), engine="sat").map(circuit)
        seeded = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(upper_bound=bound),
        ).map(circuit)
        assert seeded.added_cost == unseeded.added_cost
        assert (
            seeded.statistics["solver_iterations"]
            < unseeded.statistics["solver_iterations"]
        )

    def test_restricted_strategies_are_not_seeded(self):
        # An externally derived bound may undercut a restricted search
        # space's own minimum; such engines must be mapped unseeded.
        circuit = _paper_circuit()
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            engine_options={"strategy": "odd"},
            seeds=BoundProviderChain(upper_bound=_dp_bound(circuit)),
        )
        result = pipeline.map(circuit)
        assert "seeded_upper_bound" not in result.statistics
        assert "external_bound" not in result.statistics

    def test_subset_mode_is_not_seeded(self):
        circuit = _paper_circuit()
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            engine_options={"use_subsets": True},
            seeds=BoundProviderChain(upper_bound=_dp_bound(circuit)),
        )
        result = pipeline.map(circuit)
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert "external_bound" not in result.statistics

    def test_map_many_seeds_each_item(self):
        circuits = [_paper_circuit(), _paper_circuit()]
        bound = _dp_bound(circuits[0])
        pipeline = MappingPipeline(
            ibm_qx4(), engine="sat",
            seeds=BoundProviderChain(upper_bound=bound),
        )
        items = pipeline.map_many(circuits, workers=2)
        assert all(item.ok for item in items)
        for item in items:
            assert item.result.added_cost == bound
            assert item.result.statistics["external_bound"] == bound


class TestServiceSeeding:
    def test_sat_job_after_dp_job_starts_from_dp_schedule(self):
        """A stored DP result of the circuit does not seed the SAT job.

        The SAT engine seeds its one family with DP's schedule itself, so
        the job does the same solver work as a cold ``SATMapper.map``.
        """
        circuit = benchmark_circuit("ex-1_166")

        async def scenario():
            async with MappingService(
                ibm_qx4(), engine="dp", store=ResultStore()
            ) as service:
                dp_result = await service.result(await service.submit(circuit))
                sat_job = await service.submit(circuit, engine="sat")
                sat_result = await service.result(sat_job)
                return dp_result, sat_result, service.status(sat_job)

        dp_result, sat_result, status = asyncio.run(scenario())
        cold = SATMapper(ibm_qx4()).map(circuit)
        assert status["provenance"]["cache_hit"] is False
        assert sat_result.added_cost == dp_result.added_cost == cold.added_cost
        assert sat_result.optimal
        assert sat_result.statistics["families_dp_seeded"] == 1
        assert "model_seeded" not in sat_result.statistics
        for key in ("solver_iterations", "solver_conflicts",
                    "solver_propagations"):
            assert sat_result.statistics[key] == cold.statistics[key], key

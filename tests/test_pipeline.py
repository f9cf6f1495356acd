"""Tests for the mapper registry, the batch pipeline and the shared caches."""

import pytest

from repro.arch.cache import (
    cache_stats,
    clear_caches,
    shared_connected_subsets,
    shared_permutation_table,
)
from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import random_clifford_t_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.exact.sat_mapper import SATMapper
from repro.exact.strategies import AllGatesStrategy
from repro.heuristic.sabre_lite import SabreLiteMapper
from repro.pipeline.pipeline import BatchItem, MappingPipeline
from repro.pipeline.registry import (
    Mapper,
    MapperRegistry,
    available_mappers,
    get_mapper,
    resolve_mapper_name,
)


def _zero_cost_circuit():
    """Three CNOTs mappable with zero added cost on the first QX4 3-subset."""
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    circuit.cx(0, 2)
    circuit.cx(1, 2)
    return circuit


def _nonzero_cost_circuit():
    """A bidirectional CNOT pair: every mapping pays at least one reversal."""
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    circuit.cx(1, 0)
    circuit.cx(1, 2)
    return circuit


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert available_mappers() == [
            "dp", "sabre", "sat", "sat_split", "stochastic"
        ]

    def test_get_mapper_builds_configured_instances(self):
        mapper = get_mapper("sat", ibm_qx4(), strategy="odd", use_subsets=True)
        assert isinstance(mapper, SATMapper)
        assert mapper.use_subsets
        assert mapper.strategy.name == "odd"

    def test_strategy_instances_pass_through(self):
        mapper = get_mapper("dp", ibm_qx4(), strategy=AllGatesStrategy())
        assert isinstance(mapper, DPMapper)
        assert mapper.strategy.guarantees_minimality

    def test_aliases_resolve(self):
        assert resolve_mapper_name("sabre_lite") == "sabre"
        assert isinstance(get_mapper("SABRE_LITE", ibm_qx4()), SabreLiteMapper)

    def test_unknown_engine_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            get_mapper("made_up_engine", ibm_qx4())

    def test_custom_registration_and_protocol(self):
        registry = MapperRegistry()

        class EchoMapper:
            def __init__(self, coupling):
                self.coupling = coupling

            def map(self, circuit):
                return DPMapper(self.coupling).map(circuit)

        registry.register("echo", EchoMapper, aliases=("e",))
        mapper = registry.create("e", ibm_qx4())
        assert isinstance(mapper, Mapper)
        assert "echo" in registry
        with pytest.raises(ValueError):
            registry.register("echo", EchoMapper)

    def test_mappers_satisfy_protocol(self):
        for name in ("sat", "dp", "stochastic", "sabre", "sat_split"):
            assert isinstance(get_mapper(name, ibm_qx4()), Mapper)


class TestCaches:
    def test_permutation_table_is_shared(self):
        clear_caches()
        first = shared_permutation_table(ibm_qx4())
        second = shared_permutation_table(ibm_qx4())
        assert first is second
        stats = cache_stats()
        assert stats["permutation_table_hits"] == 1
        assert stats["permutation_table_misses"] == 1

    def test_subset_lists_are_cached_but_copied(self):
        clear_caches()
        first = shared_connected_subsets(ibm_qx4(), 3)
        second = shared_connected_subsets(ibm_qx4(), 3)
        assert first == second
        assert first is not second  # callers may mutate their copy
        stats = cache_stats()
        assert stats["connected_subsets_hits"] == 1

    def test_guard_checked_before_cache(self):
        clear_caches()
        shared_permutation_table(ibm_qx4())
        with pytest.raises(ValueError):
            shared_permutation_table(ibm_qx4(), max_qubits_exhaustive=3)

    def test_structurally_equal_subgraphs_share_one_table(self):
        clear_caches()
        qx4 = ibm_qx4()
        first = shared_permutation_table(qx4.subgraph((0, 1, 2), name="a"))
        second = shared_permutation_table(qx4.subgraph((0, 1, 2), name="b"))
        assert first is second

    def test_racing_cold_misses_share_one_entry(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.benchlib.paper_example import PAPER_EXAMPLE_CNOTS
        from repro.exact import encoding

        def race(build, workers=8):
            barrier = threading.Barrier(workers)

            def run(_):
                barrier.wait()
                return build()

            with ThreadPoolExecutor(workers) as pool:
                return list(pool.map(run, range(workers)))

        clear_caches()
        encoding.clear_skeleton_cache()
        coupling = ibm_qx4()
        tables = race(lambda: shared_permutation_table(coupling))
        assert all(table is tables[0] for table in tables)
        stats = cache_stats()
        assert stats["permutation_tables_cached"] == 1
        assert stats["permutation_table_hits"] + stats["permutation_table_misses"] == 8

        gates = tuple(PAPER_EXAMPLE_CNOTS)
        spots = tuple(range(len(gates)))
        skeletons = race(lambda: encoding._shared_skeleton(
            gates, 4, coupling.num_qubits, spots, tables[0]
        ))
        assert all(skeleton is skeletons[0] for skeleton in skeletons)
        skeleton_stats = encoding.skeleton_cache_stats()
        assert skeleton_stats["entries"] == 1
        assert skeleton_stats["hits"] + skeleton_stats["misses"] == 8
        encoding.clear_skeleton_cache()


class TestMappingPipelineSingle:
    def test_plain_engine_delegation(self):
        pipeline = MappingPipeline(ibm_qx4(), engine="dp")
        result = pipeline.map(_nonzero_cost_circuit())
        assert result.engine == "dp"
        assert result.optimal

    def test_subset_sweep_counters_match_sat_mapper(self):
        # Spare workers never split one circuit's sweep: the pipeline runs
        # SATMapper.map itself, so pruning and sharing counters agree.
        circuit = paper_example_cnot_skeleton()
        sweep = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        piped = MappingPipeline(
            ibm_qx4(), engine="sat", engine_options={"use_subsets": True},
            workers=4,
        ).map(circuit)
        assert piped.added_cost == sweep.added_cost
        for key in (
            "solver_conflicts", "families_pruned", "subsets_solved",
            "clauses_imported",
        ):
            assert piped.statistics[key] == sweep.statistics[key], key

    def test_process_executor_maps_correctly(self):
        pipeline = MappingPipeline(
            ibm_qx4(), engine="dp", workers=2, executor="process"
        )
        items = pipeline.map_many(
            [_zero_cost_circuit(), _nonzero_cost_circuit()], workers=2
        )
        assert [item.ok for item in items] == [True, True]
        assert items[0].result.added_cost == 0
        assert items[1].result.added_cost > 0

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            MappingPipeline(ibm_qx4(), executor="fiber")

    def test_rejects_unknown_engine_eagerly(self):
        with pytest.raises(KeyError):
            MappingPipeline(ibm_qx4(), engine="made_up")


class TestMapMany:
    def _circuits(self):
        return [
            random_clifford_t_circuit(3, 3, 5, seed=seed) for seed in range(4)
        ]

    def test_results_preserve_input_order(self):
        pipeline = MappingPipeline(ibm_qx4(), engine="dp", workers=3)
        items = pipeline.map_many(self._circuits())
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert all(isinstance(item, BatchItem) and item.ok for item in items)

    def test_parallel_matches_sequential(self):
        circuits = self._circuits()
        pipeline = MappingPipeline(ibm_qx4(), engine="dp")
        sequential = pipeline.map_many(circuits, workers=1)
        parallel = pipeline.map_many(circuits, workers=4)
        assert [item.result.added_cost for item in sequential] == [
            item.result.added_cost for item in parallel
        ]

    def test_sat_batch_matches_sequential_sat_mapper(self):
        circuits = self._circuits()
        options = {"use_subsets": True}
        expected = [
            SATMapper(ibm_qx4(), use_subsets=True).map(circuit).added_cost
            for circuit in circuits
        ]
        items = MappingPipeline(
            ibm_qx4(), engine="sat", engine_options=options, workers=4
        ).map_many(circuits)
        assert [item.result.added_cost for item in items] == expected

    def test_structured_failure_does_not_poison_batch(self):
        too_big = QuantumCircuit(9, name="too_big")
        too_big.cx(0, 8)
        circuits = [self._circuits()[0], too_big, self._circuits()[1]]
        items = MappingPipeline(ibm_qx4(), engine="dp", workers=3).map_many(circuits)
        assert items[0].ok and items[2].ok
        failed = items[1]
        assert not failed.ok
        assert failed.error_type == "ValueError"
        assert "logical qubits" in failed.error
        assert failed.name == "too_big"

    def test_empty_batch(self):
        assert MappingPipeline(ibm_qx4(), engine="dp").map_many([]) == []


class TestSATMapperSatellites:
    def test_early_exit_on_zero_objective_subset(self):
        result = SATMapper(ibm_qx4(), use_subsets=True).map(_zero_cost_circuit())
        assert result.added_cost == 0
        # The first subset already yields objective 0; the remaining
        # connected 3-subsets of QX4 must not be solved.
        assert result.statistics["subsets_tried"] < result.statistics["subsets_total"]
        assert result.statistics["subsets_skipped"] > 0

    def test_budget_exhaustion_skips_remaining_subsets(self, monkeypatch):
        mapper = SATMapper(ibm_qx4(), use_subsets=True, time_limit=60.0)
        remaining = iter([60.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(mapper, "_remaining_time", lambda start: next(remaining))
        result = mapper.map(_nonzero_cost_circuit())
        assert result.statistics["budget_exhausted"]
        assert result.statistics["subsets_tried"] == 1
        assert result.statistics["subsets_skipped"] > 0
        assert not result.optimal

    def test_budget_exhausted_before_any_solution_raises(self):
        from repro.exact.sat_mapper import SATMapperError

        mapper = SATMapper(ibm_qx4(), use_subsets=True, time_limit=0.0)
        with pytest.raises(SATMapperError, match="budget"):
            mapper.map(_nonzero_cost_circuit())

    def test_incumbent_bound_tightens_later_subsets(self):
        # With subsets enabled the incumbent's objective caps every later
        # subset search; the result must still match the DP oracle.
        circuit = random_clifford_t_circuit(3, 4, 7, seed=11)
        sat = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        dp = DPMapper(ibm_qx4()).map(circuit)
        assert sat.added_cost == dp.added_cost

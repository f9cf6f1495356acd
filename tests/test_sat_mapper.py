"""Tests for the SAT-based exact mapper (kept small: the engine is pure Python)."""

import pytest

from repro.arch.devices import ibm_qx4, linear_architecture
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_cnot_skeleton,
)
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.exact.sat_mapper import SATMapper
from repro.exact.strategies import QubitTriangleStrategy, get_strategy
from repro.sim.equivalence import result_is_equivalent
from repro.verify import verify_result


def triangle_circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.cx(0, 2)
    return circuit


class TestSATMapper:
    def test_matches_dp_on_small_circuit(self):
        circuit = triangle_circuit()
        sat_result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        dp_result = DPMapper(ibm_qx4()).map(circuit)
        assert sat_result.added_cost == dp_result.added_cost
        assert verify_result(sat_result, ibm_qx4()).compliant
        assert result_is_equivalent(sat_result)

    def test_full_device_proves_minimality(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        result = SATMapper(ibm_qx4(), use_subsets=False).map(circuit)
        assert result.optimal
        assert result.added_cost == DPMapper(ibm_qx4()).map(circuit).added_cost

    def test_subsets_do_not_claim_minimality(self):
        # A proper subset sweep's positive cost is a restricted minimum.
        result = SATMapper(ibm_qx4(), use_subsets=True).map(
            benchmark_circuit("ex-1_166")
        )
        assert result.added_cost == 8
        assert not result.optimal

    @pytest.mark.parametrize(
        "make_mapper",
        [
            lambda: SATMapper(ibm_qx4(), use_subsets=True),
            lambda: SATMapper(ibm_qx4(), strategy=get_strategy("odd")),
            lambda: DPMapper(ibm_qx4(), strategy=get_strategy("odd")),
        ],
        ids=["sat-subsets", "sat-odd", "dp-odd"],
    )
    def test_zero_added_cost_is_minimal(self, make_mapper):
        # No mapping adds fewer than zero operations, whatever the search.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = make_mapper().map(circuit)
        assert result.added_cost == 0
        assert result.optimal

    def test_restricted_strategy_never_beats_minimum(self):
        circuit = triangle_circuit()
        minimal = DPMapper(ibm_qx4()).map(circuit)
        restricted = SATMapper(
            ibm_qx4(), strategy=QubitTriangleStrategy(), use_subsets=True
        ).map(circuit)
        assert restricted.added_cost >= minimal.added_cost
        assert result_is_equivalent(restricted)

    def test_circuit_without_cnots(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1)
        result = SATMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0
        assert result.optimal

    def test_oversized_circuit_rejected(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        with pytest.raises(ValueError):
            SATMapper(ibm_qx4()).map(circuit)

    def test_linear_optimizer_strategy(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = SATMapper(
            ibm_qx4(), use_subsets=True, optimizer="linear"
        ).map(circuit)
        assert result.added_cost == DPMapper(ibm_qx4()).map(circuit).added_cost

    def test_reversal_needed_on_directed_line(self):
        line = linear_architecture(2)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        result = SATMapper(line).map(circuit)
        assert result.added_cost == 4
        assert result.cost.reversals == 1
        assert result_is_equivalent(result)

    def test_statistics_are_reported(self):
        circuit = triangle_circuit()
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.statistics["subsets_tried"] >= 1
        assert result.statistics["encoding_variables"] > 0
        assert result.statistics["encoding_clauses"] > 0


class TestSubsetFamilies:
    """Structurally identical subsets share one encoding and one session."""

    def test_qx4_four_qubit_subsets_form_two_families(self):
        mapper = SATMapper(ibm_qx4(), use_subsets=True)
        subsets = mapper.candidate_subsets(4)
        gates, _ = mapper.cnot_instance(paper_example_cnot_skeleton())
        groups = [
            family.indices for family in mapper.plan_families(subsets, gates)
        ]
        assert len(subsets) == 4
        assert len(groups) == 2
        assert sorted(index for group in groups for index in group) == [0, 1, 2, 3]
        for group in groups:
            assert group == sorted(group)

    def test_family_reuse_in_sequential_sweep(self):
        # Neither family of 4gt11_84 is pruned or closed on its seed: both
        # are solved and their second members are mirrored for free.
        circuit = benchmark_circuit("4gt11_84")
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        stats = result.statistics
        assert result.added_cost == DPMapper(ibm_qx4()).map(circuit).added_cost
        assert stats["families_pruned"] == stats["families_closed"] == 0
        assert stats["subsets_tried"] == 4
        assert stats["subsets_solved"] == 2
        assert stats["family_reuses"] == 2
        # Only the solved instances spend solver iterations.
        assert stats["solver_iterations"] > 0
        assert stats["session_solve_calls"] == stats["solver_iterations"]

    def test_family_pruning_skips_second_family_entirely(self):
        # With pruning on, the second family's structural reversal bound (4)
        # already exceeds the incumbent-derived bound (3): it is skipped
        # without a single solver call, same proven minimum.
        circuit = paper_example_cnot_skeleton()
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        stats = result.statistics
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert stats["subsets_tried"] == 4
        assert stats["subsets_solved"] == 1
        assert stats["family_reuses"] == 1
        assert stats["subsets_pruned"] == 2
        assert stats["families_pruned"] == 1

    def test_family_reuse_matches_unshared_objective(self):
        # Cross-check: each subset mapped on its own (no family sharing,
        # no pruning) must agree with the swept result on the minimum.
        circuit = paper_example_cnot_skeleton()
        coupling = ibm_qx4()
        mapper = SATMapper(coupling, use_subsets=True)
        best = min(
            SATMapper(coupling.subgraph(subset)).map(circuit).objective
            for subset in mapper.candidate_subsets(circuit.num_qubits)
        )
        assert mapper.map(circuit).objective == best

    def test_accepts_seeds_for_flags(self):
        assert SATMapper(ibm_qx4()).accepts_seeds_for(3)
        assert not SATMapper(ibm_qx4(), use_subsets=True).accepts_seeds_for(3)
        assert not SATMapper(
            ibm_qx4(), strategy=get_strategy("odd")
        ).accepts_seeds_for(3)

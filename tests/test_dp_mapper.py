"""Unit tests for the dynamic-programming exact mapper."""

import pytest

from repro.arch.coupling import CouplingMap
from repro.arch.devices import ibm_qx2, ibm_qx4, linear_architecture, sweep_grid8
from repro.benchlib.generators import (
    benchmark_circuit,
    random_clifford_t_circuit,
    random_cnot_circuit,
)
from repro.benchlib.paper_example import paper_example_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.exact.strategies import (
    AllGatesStrategy,
    DisjointQubitsStrategy,
    OddGatesStrategy,
    QubitTriangleStrategy,
)
from repro.sim.equivalence import result_is_equivalent
from repro.verify import verify_result


class TestDPMapperBasics:
    def test_single_cnot_on_coupled_pair_costs_nothing(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0
        assert result.optimal
        assert verify_result(result, ibm_qx4()).compliant

    def test_single_reversed_cnot_costs_at_most_four(self):
        # Any CNOT can be placed on some edge of QX4 in the right direction,
        # so the minimum is 0 for a one-gate circuit.
        circuit = QuantumCircuit(2)
        circuit.cx(1, 0)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0

    def test_reversal_is_needed_on_directed_line(self):
        # On a strictly directed 2-qubit line 0 -> 1, a circuit using both
        # CNOT directions must reverse one of them with 4 Hadamards.
        line = linear_architecture(2)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        result = DPMapper(line).map(circuit)
        assert result.cost.reversals == 1
        assert result.cost.swaps == 0
        assert result.added_cost == 4

    def test_swap_needed_on_line_three(self):
        # Pairwise interactions 0-1, 1-2 and 0-2 cannot be placed on a
        # 3-qubit line without at least one SWAP.
        line = linear_architecture(3, bidirectional=True)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        result = DPMapper(line).map(circuit)
        assert result.cost.swaps >= 1
        assert result.added_cost >= 7
        assert result_is_equivalent(result)

    def test_circuit_without_cnots(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1).x(2)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0
        assert result.mapped_circuit.count_single_qubit() == 3

    def test_too_many_qubits_rejected(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        with pytest.raises(ValueError):
            DPMapper(ibm_qx4()).map(circuit)

    def test_cross_component_move_has_no_valid_mapping(self):
        # CNOT(0, 1) puts logical 0 and 1 on one component and logical 2 on
        # the other; CNOT(1, 2) then needs logical 1 to change component.
        device = CouplingMap(4, [(0, 1), (2, 3)], name="two-components")
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        with pytest.raises(ValueError, match="no valid mapping exists before gate 1"):
            DPMapper(device).map(circuit)

    def test_triangle_circuit_on_qx4_costs_only_reversals(self):
        # Three mutually interacting qubits fit on a triangle of QX4, so no
        # SWAP is ever needed; only direction fixes may be required.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 0)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.cost.swaps == 0
        assert result.added_cost <= 8


class TestDPMapperEndToEnd:
    def test_paper_example_is_mapped_correctly(self):
        result = DPMapper(ibm_qx4()).map(paper_example_circuit())
        assert result.optimal
        assert verify_result(result, ibm_qx4()).compliant
        assert result_is_equivalent(result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits_are_compliant_and_equivalent(self, seed):
        circuit = random_clifford_t_circuit(4, 5, 8, seed=seed)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert verify_result(result, ibm_qx4()).compliant
        assert result_is_equivalent(result)
        assert result.objective == result.added_cost

    def test_qx2_and_qx4_both_work(self):
        circuit = random_clifford_t_circuit(5, 4, 10, seed=7)
        for device in (ibm_qx2(), ibm_qx4()):
            result = DPMapper(device).map(circuit)
            assert verify_result(result, device).compliant
            assert result_is_equivalent(result)


class TestDPMapperPins:
    """The objective and ``transitions_evaluated`` the benchmark compares."""

    @pytest.mark.parametrize(
        "name, objective, transitions",
        [("ex-1_166", 8, 10368), ("ham3_102", 16, 12960), ("4gt11_84", 11, 41472)],
    )
    def test_table1_stand_ins_on_qx4(self, name, objective, transitions):
        result = DPMapper(ibm_qx4()).map(benchmark_circuit(name))
        assert result.objective == objective
        assert result.statistics["transitions_evaluated"] == transitions

    def test_3_17_13_on_grid8(self):
        result = DPMapper(sweep_grid8()).map(benchmark_circuit("3_17_13"))
        assert result.objective == 37
        assert result.statistics["transitions_evaluated"] == 230400
        assert result.objective == result.added_cost

    def test_first_strict_minimum_breaks_ties(self):
        # Moving back to (0, 2, 1, 3) before gate 13 or before gate 14 costs
        # the same.  The first strictly cheaper predecessor in state order
        # is (0, 2, 1, 3) itself, so the move comes before gate 13.
        result = DPMapper(ibm_qx4()).map(random_cnot_circuit(4, 16, seed=4000))
        assert result.objective == 26
        assert result.schedule.mappings == (
            [(0, 2, 1, 3)] * 7 + [(0, 3, 1, 2)] * 6 + [(0, 2, 1, 3)] * 3
        )


class _EvenGatesOnly(AllGatesStrategy):
    """An ``AllGatesStrategy`` subclass that drops the odd permutation spots."""

    name = "even-only"
    guarantees_minimality = False

    def spots(self, gates, coupling):
        return [k for k in super().spots(gates, coupling) if k % 2 == 0]


class TestDPMapperStrategies:
    def test_restricting_subclass_of_all_gates_is_not_optimal(self):
        circuit = random_clifford_t_circuit(4, 3, 10, seed=13)
        result = DPMapper(ibm_qx4(), strategy=_EvenGatesOnly()).map(circuit)
        assert result.num_permutation_spots == 5
        assert not result.optimal

    @pytest.mark.parametrize(
        "strategy_cls", [DisjointQubitsStrategy, OddGatesStrategy, QubitTriangleStrategy]
    )
    def test_restricted_strategies_never_beat_the_minimum(self, strategy_cls):
        circuit = random_clifford_t_circuit(4, 3, 10, seed=13)
        qx4 = ibm_qx4()
        minimal = DPMapper(qx4).map(circuit)
        restricted = DPMapper(qx4, strategy=strategy_cls()).map(circuit)
        assert restricted.added_cost >= minimal.added_cost
        assert not restricted.optimal
        assert result_is_equivalent(restricted)

    def test_restricted_strategy_reports_spot_count(self):
        circuit = random_clifford_t_circuit(4, 0, 9, seed=3)
        result = DPMapper(ibm_qx4(), strategy=OddGatesStrategy()).map(circuit)
        assert result.num_permutation_spots == 5

    def test_objective_matches_reconstructed_cost(self):
        circuit = random_clifford_t_circuit(5, 6, 12, seed=21)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.objective == result.added_cost

"""Unit tests for the dynamic-programming exact mapper."""

import random

import pytest

from repro.arch.cache import shared_mapping_graph
from repro.arch.coupling import CouplingMap
from repro.arch.devices import ibm_qx2, ibm_qx4, linear_architecture, sweep_grid8
from repro.benchlib.generators import (
    benchmark_circuit,
    random_clifford_t_circuit,
    random_cnot_circuit,
)
from repro.benchlib.paper_example import paper_example_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.exact.dp_mapper import DPMapper, dp_schedule
from repro.exact.strategies import (
    AllGatesStrategy,
    DisjointQubitsStrategy,
    OddGatesStrategy,
    QubitTriangleStrategy,
    WindowStrategy,
    available_strategies,
    get_strategy,
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

    def test_four_logical_qubits_on_grid8(self):
        # 1680 mapping states, the largest state count a pin covers.
        result = DPMapper(sweep_grid8()).map(benchmark_circuit("rd32-v0_66"))
        assert result.statistics["states"] == 1680
        assert result.objective == 23
        assert result.statistics["transitions_evaluated"] == 5400000
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


def _bfs_distances(graph, source):
    """SWAP distances from state *source* over ``graph.neighbours``; ``None``
    for states in another component."""
    distances = [None] * len(graph.states)
    distances[source] = 0
    frontier = [source]
    while frontier:
        reached = []
        for state in frontier:
            for neighbour in graph.neighbours[state]:
                if distances[neighbour] is None:
                    distances[neighbour] = distances[state] + 1
                    reached.append(neighbour)
        frontier = reached
    return distances


def reference_dp_schedule(coupling, num_logical, gates, spots):
    """The all-pairs DP: at a spot every valid state compares every previous
    state, in ascending index, and keeps the first strictly cheaper one."""
    graph = shared_mapping_graph(coupling, num_logical)
    rows = {}
    valid_states = []
    for control, target in gates:
        options = []
        for index, state in enumerate(graph.states):
            if coupling.allows_cnot(state[control], state[target]):
                options.append((index, 0))
            elif coupling.allows_cnot(state[target], state[control]):
                options.append((index, REVERSAL_COST))
        if not options:
            raise ValueError(
                f"CNOT({control}, {target}) cannot be placed on any coupled pair"
            )
        valid_states.append(options)
    best = dict(valid_states[0])
    parents = [{}]
    transitions_evaluated = 0
    for k in range(1, len(gates)):
        new_best, parent = {}, {}
        if k in spots:
            previous = list(best.items())
            transitions_evaluated += len(previous) * len(valid_states[k])
            for index, gate_cost in valid_states[k]:
                if index not in rows:
                    rows[index] = _bfs_distances(graph, index)
                distances = rows[index]
                best_cost = None
                for old_index, old_cost in previous:
                    if distances[old_index] is None:
                        continue
                    candidate = old_cost + SWAP_COST * distances[old_index]
                    if best_cost is None or candidate < best_cost:
                        best_cost = candidate
                        parent[index] = old_index
                if best_cost is not None:
                    new_best[index] = best_cost + gate_cost
        else:
            for index, gate_cost in valid_states[k]:
                if index in best:
                    new_best[index] = best[index] + gate_cost
                    parent[index] = index
        if not new_best:
            raise ValueError(
                f"no valid mapping exists before gate {k} when the mapping "
                f"may change only at the permutation spots"
            )
        best = new_best
        parents.append(parent)
    current = min(best, key=best.get)
    objective = best[current]
    sequence = [current]
    for k in range(len(gates) - 1, 0, -1):
        current = parents[k][current]
        sequence.append(current)
    sequence.reverse()
    return [graph.states[index] for index in sequence], objective, transitions_evaluated


def _outcome(schedule, coupling, num_logical, gates, spots):
    try:
        return schedule(coupling, num_logical, gates, set(spots))
    except ValueError as error:
        return str(error)


_TWO_COMPONENTS = CouplingMap(5, [(0, 1), (1, 2), (3, 4)], name="two-components")


class TestDPAgainstAllPairs:
    """``dp_schedule`` against the all-pairs DP it replaced: the same
    mappings, objective and ``transitions_evaluated``, or the same error."""

    @pytest.mark.parametrize(
        "device, num_logical, num_cnots",
        [(ibm_qx2, n, 10) for n in (2, 3, 4, 5)]
        + [(ibm_qx4, n, 10) for n in (2, 3, 4, 5)]
        + [(sweep_grid8, 3, 6), (sweep_grid8, 4, 3)]
        + [(lambda: _TWO_COMPONENTS, n, 8) for n in (2, 3, 4, 5)],
    )
    def test_every_strategy_and_random_spots(self, device, num_logical, num_cnots):
        coupling = device()
        rng = random.Random(f"{coupling.name}/{num_logical}")
        for _ in range(2):
            circuit = random_cnot_circuit(
                num_logical, num_cnots, seed=rng.randrange(10**6)
            )
            cnot_gates = circuit.cnot_gates()
            gates = [(gate.control, gate.target) for gate in cnot_gates]
            strategies = [
                get_strategy(name) for name in available_strategies() if name != "window"
            ] + [WindowStrategy(window) for window in (2, 3, 4, 5)]
            spot_sets = [strategy.spots(cnot_gates, coupling) for strategy in strategies]
            spot_sets += [
                [k for k in range(len(gates)) if rng.random() < 0.5] for _ in range(3)
            ]
            # Spot 0 changes nothing: the first mapping is always free.
            for spots in {frozenset(spots) - {0} for spots in spot_sets}:
                expected = _outcome(
                    reference_dp_schedule, coupling, num_logical, gates, spots
                )
                actual = _outcome(dp_schedule, coupling, num_logical, gates, spots)
                assert actual == expected, (gates, sorted(spots))

    def test_infeasible_spots_raise_the_same_error(self):
        # Without a spot the three qubits keep one placement on the path
        # 0-1-2, where the first two gates leave logical 0 and 2 apart.
        gates = [(0, 1), (1, 2), (0, 2)]
        expected = _outcome(reference_dp_schedule, _TWO_COMPONENTS, 3, gates, [])
        assert expected.startswith("no valid mapping exists before gate 2")
        assert _outcome(dp_schedule, _TWO_COMPONENTS, 3, gates, []) == expected

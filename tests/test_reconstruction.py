"""Unit tests for mapped-circuit reconstruction from schedules."""

import pytest

from repro.arch.devices import ibm_qx4
from repro.circuit.circuit import QuantumCircuit
from repro.exact.reconstruction import (
    ReconstructionError,
    default_schedule,
    reconstruct_circuit,
)
from repro.exact.result import MappingSchedule
from repro.sim.equivalence import mapped_circuit_equivalent
from repro.verify import check_coupling_compliance


class TestReconstruction:
    def test_identity_schedule_single_cnot(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(1, 0)], initial_mapping=(1, 0)
        )
        mapped, cost = reconstruct_circuit(circuit, schedule, ibm_qx4())
        assert cost.swaps == 0
        assert cost.reversals == 0
        assert mapped.count_cnot() == 1
        assert check_coupling_compliance(mapped, ibm_qx4()).compliant

    def test_reversed_placement_adds_four_hadamards(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        # Logical control on physical 0, target on physical 1: only (1, 0) is
        # in the coupling map, so the CNOT must be reversed.
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(0, 1)], initial_mapping=(0, 1)
        )
        mapped, cost = reconstruct_circuit(circuit, schedule, ibm_qx4())
        assert cost.reversals == 1
        assert mapped.count_ops()["h"] == 4
        assert check_coupling_compliance(mapped, ibm_qx4()).compliant
        assert mapped_circuit_equivalent(circuit, mapped, (0, 1), (0, 1))

    def test_mapping_change_inserts_swaps(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        schedule = MappingSchedule(
            num_logical=2,
            num_physical=5,
            mappings=[(1, 0), (0, 1)],
            initial_mapping=(1, 0),
        )
        mapped, cost = reconstruct_circuit(circuit, schedule, ibm_qx4())
        assert cost.swaps == 1
        # One swap = 7 elementary gates when decomposed.
        assert mapped.gate_cost() == 2 + 7 + 4 * cost.reversals
        assert mapped_circuit_equivalent(circuit, mapped, (1, 0), (0, 1))

    def test_single_qubit_gates_follow_their_logical_qubit(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(1)
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(2, 0)], initial_mapping=(2, 0)
        )
        mapped, _ = reconstruct_circuit(circuit, schedule, ibm_qx4())
        names_and_qubits = [(g.name, g.qubits) for g in mapped]
        assert ("h", (2,)) in names_and_qubits
        assert ("t", (0,)) in names_and_qubits

    def test_measure_and_barrier_are_remapped(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.measure(0, 0)
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(3, 2)], initial_mapping=(3, 2)
        )
        mapped, _ = reconstruct_circuit(circuit, schedule, ibm_qx4())
        measure = [g for g in mapped if g.name == "measure"][0]
        assert measure.qubits == (3,)
        barrier = [g for g in mapped if g.name == "barrier"][0]
        assert set(barrier.qubits) == {3, 2}

    def test_uncoupled_placement_is_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(0, 4)], initial_mapping=(0, 4)
        )
        with pytest.raises(ReconstructionError):
            reconstruct_circuit(circuit, schedule, ibm_qx4())

    def test_schedule_length_mismatch_is_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        schedule = MappingSchedule(
            num_logical=2, num_physical=5, mappings=[(1, 0)], initial_mapping=(1, 0)
        )
        with pytest.raises(ReconstructionError):
            reconstruct_circuit(circuit, schedule, ibm_qx4())

    def test_non_cnot_two_qubit_gate_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        schedule = default_schedule(2, ibm_qx4())
        with pytest.raises(ReconstructionError):
            reconstruct_circuit(circuit, schedule, ibm_qx4())

    def test_default_schedule_fits_device(self):
        schedule = default_schedule(3, ibm_qx4())
        assert schedule.initial_mapping == (0, 1, 2)
        with pytest.raises(ReconstructionError):
            default_schedule(6, ibm_qx4())

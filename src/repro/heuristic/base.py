"""Shared machinery for the heuristic mappers.

Heuristic mappers process the circuit gate by gate while maintaining the
current logical-to-physical layout; they insert SWAPs (recorded gate by gate)
whenever a CNOT's qubits are not adjacent.  Unlike the exact engines they
build the mapped circuit directly, which also lets them work on devices that
are too large for an exhaustive permutation table.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Barrier, Measure
from repro.exact.cost import CostBreakdown
from repro.exact.reconstruction import emit_cnot, emit_swap
from repro.exact.result import MappingResult, MappingSchedule


class HeuristicMapper(ABC):
    """Base class of the heuristic mapping baselines."""

    #: Engine name used in result objects and benchmark tables.
    name: str = "heuristic"

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    # ------------------------------------------------------------------
    @abstractmethod
    def _run(self, circuit: QuantumCircuit) -> "_MappingTrace":
        """Produce the mapping trace for *circuit* (engine specific)."""

    def map(self, circuit: QuantumCircuit) -> MappingResult:
        """Map *circuit* and return a :class:`MappingResult`."""
        if circuit.num_qubits > self.coupling.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} logical qubits but the device "
                f"only has {self.coupling.num_qubits}"
            )
        start = time.monotonic()
        trace = self._run(circuit)
        runtime = time.monotonic() - start
        original_gates = circuit.count_single_qubit() + circuit.count_cnot()
        cost = CostBreakdown(
            original_gates=original_gates,
            swaps=trace.swap_count,
            reversals=trace.reversal_count,
        )
        schedule = MappingSchedule(
            num_logical=circuit.num_qubits,
            num_physical=self.coupling.num_qubits,
            mappings=trace.cnot_mappings,
            initial_mapping=trace.initial_layout,
        )
        return MappingResult(
            mapped_circuit=trace.circuit,
            original_circuit=circuit,
            schedule=schedule,
            cost=cost,
            objective=cost.added_cost,
            # No mapping adds fewer than zero operations.
            optimal=cost.added_cost == 0,
            engine=self.name,
            strategy="heuristic",
            num_permutation_spots=None,
            runtime_seconds=runtime,
            statistics=trace.statistics,
        )


class _MappingTrace:
    """Mutable helper that records the circuit built by a heuristic mapper."""

    def __init__(self, coupling: CouplingMap, num_logical: int,
                 initial_layout: Tuple[int, ...], num_clbits: int, name: str):
        self.coupling = coupling
        self.circuit = QuantumCircuit(coupling.num_qubits, name, num_clbits)
        self.layout: List[int] = list(initial_layout)
        self.initial_layout: Tuple[int, ...] = tuple(initial_layout)
        self.swap_count = 0
        self.reversal_count = 0
        self.cnot_mappings: List[Tuple[int, ...]] = []
        self.statistics: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def physical(self, logical: int) -> int:
        """Physical qubit currently hosting *logical*."""
        return self.layout[logical]

    def apply_swap(self, physical_a: int, physical_b: int) -> None:
        """Insert a SWAP between two coupled physical qubits and update the layout."""
        emit_swap(self.circuit, self.coupling, physical_a, physical_b)
        self.swap_count += 1
        for logical, physical in enumerate(self.layout):
            if physical == physical_a:
                self.layout[logical] = physical_b
            elif physical == physical_b:
                self.layout[logical] = physical_a

    def apply_cnot(self, control: int, target: int) -> None:
        """Insert a CNOT between logical qubits, fixing the direction if needed."""
        self.cnot_mappings.append(tuple(self.layout))
        if emit_cnot(self.circuit, self.coupling,
                     self.layout[control], self.layout[target]):
            self.reversal_count += 1

    def apply_other(self, gate) -> None:
        """Forward a non-CNOT gate to the physical qubits of its logical qubits."""
        if isinstance(gate, Measure):
            self.circuit.measure(self.layout[gate.qubit], gate.clbit)
        elif isinstance(gate, Barrier):
            self.circuit.append(Barrier(tuple(self.layout[q] for q in gate.qubits)))
        elif gate.is_single_qubit:
            self.circuit.append(gate.remap({gate.qubits[0]: self.layout[gate.qubits[0]]}))
        else:
            raise ValueError(
                f"two-qubit gate {gate.name!r} is not supported by the heuristic "
                "mappers; decompose the circuit into CNOT + single-qubit gates first"
            )


__all__ = ["HeuristicMapper"]

"""Reconstruction of the mapped circuit from a mapping schedule.

Given the original circuit and a :class:`~repro.exact.result.MappingSchedule`
(one complete logical-to-physical mapping per CNOT gate), this module builds
the architecture-compliant circuit:

* mapping changes between consecutive CNOTs are realised by minimal SWAP
  sequences along coupling-map edges; each SWAP is emitted in its
  7-operation decomposition (3 CNOTs + 4 H, Fig. 3 of the paper) so that the
  output circuit only contains gates the architecture supports natively,
* CNOTs whose placement goes against the coupling direction are surrounded by
  four Hadamards (cost 4),
* single-qubit gates, barriers and measurements are forwarded to the physical
  qubit currently hosting their logical qubit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.cache import shared_synthesizer
from repro.arch.coupling import CouplingError, CouplingMap
from repro.arch.synthesis import PermutationSynthesizer
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Barrier, CNOTGate, Measure
from repro.exact.cost import CostBreakdown
from repro.exact.result import MappingResult, MappingSchedule


class ReconstructionError(ValueError):
    """Raised when a schedule cannot be realised on the architecture."""


def emit_swap(circuit: QuantumCircuit, coupling: CouplingMap,
              qubit_a: int, qubit_b: int) -> None:
    """Append one SWAP between two coupled physical qubits.

    The SWAP is emitted as its 7-gate elementary decomposition (3 CNOTs with
    the middle one direction-fixed by 4 H gates).
    """
    if coupling.allows_cnot(qubit_a, qubit_b):
        control, target = qubit_a, qubit_b
    elif coupling.allows_cnot(qubit_b, qubit_a):
        control, target = qubit_b, qubit_a
    else:
        raise ReconstructionError(
            f"cannot SWAP physical qubits {qubit_a} and {qubit_b}: not coupled"
        )
    circuit.cx(control, target)
    circuit.h(control)
    circuit.h(target)
    circuit.cx(control, target)
    circuit.h(control)
    circuit.h(target)
    circuit.cx(control, target)


def emit_cnot(circuit: QuantumCircuit, coupling: CouplingMap,
              control: int, target: int) -> bool:
    """Append one CNOT on physical qubits, reversing direction if needed.

    Returns:
        True when the CNOT had to be reversed (four H gates were added).
    """
    if coupling.allows_cnot(control, target):
        circuit.cx(control, target)
        return False
    if coupling.allows_cnot(target, control):
        circuit.h(control)
        circuit.h(target)
        circuit.cx(target, control)
        circuit.h(control)
        circuit.h(target)
        return True
    raise ReconstructionError(
        f"CNOT between physical qubits {control} and {target} is not allowed "
        f"by the coupling map {coupling.name!r}"
    )


def _swap_sequence(old: Tuple[int, ...], new: Tuple[int, ...],
                   coupling: CouplingMap,
                   table: Optional[PermutationSynthesizer]) -> List[Tuple[int, int]]:
    """SWAP-edge sequence turning mapping *old* into mapping *new*.

    Minimal when the provider is exact (``optimal=True``, devices of at most
    8 qubits); an upper bound from the routed synthesizer on larger devices.
    The fallback resolves through the process-wide cache, so an omitted
    provider never re-runs the exhaustive BFS per call.
    """
    if old == new:
        return []
    if table is None:
        table = shared_synthesizer(coupling)
    return table.transition_sequence(old, new)


def reconstruct_circuit(
    original: QuantumCircuit,
    schedule: MappingSchedule,
    coupling: CouplingMap,
    permutation_table: Optional[PermutationSynthesizer] = None,
) -> Tuple[QuantumCircuit, CostBreakdown]:
    """Build the architecture-compliant circuit realising *schedule*.

    Args:
        original: The original circuit (including single-qubit gates).
        schedule: Per-CNOT logical-to-physical mappings.
        coupling: Target architecture.
        permutation_table: Optional SWAP provider for *coupling* — an exact
            :class:`~repro.arch.permutations.PermutationTable` or any
            :class:`~repro.arch.synthesis.PermutationSynthesizer`; resolved
            from the shared cache by device size otherwise.

    Returns:
        The mapped circuit and its :class:`CostBreakdown`.

    Raises:
        ReconstructionError: If the schedule places a CNOT on an uncoupled
            pair or requires an impossible SWAP.
    """
    schedule.validate()
    mapped = QuantumCircuit(
        coupling.num_qubits, f"{original.name}_mapped", original.num_clbits
    )
    current = tuple(schedule.initial_mapping)
    swaps = 0
    reversals = 0
    cnot_index = 0

    for gate in original.gates:
        if gate.is_cnot:
            if cnot_index >= len(schedule.mappings):
                raise ReconstructionError(
                    f"schedule provides only {len(schedule.mappings)} mappings but "
                    "the circuit has more CNOT gates"
                )
            target_mapping = schedule.mappings[cnot_index]
            for edge in _swap_sequence(current, target_mapping, coupling,
                                       permutation_table):
                emit_swap(mapped, coupling, edge[0], edge[1])
                swaps += 1
            current = target_mapping
            physical_control = current[gate.control]
            physical_target = current[gate.target]
            if emit_cnot(mapped, coupling, physical_control, physical_target):
                reversals += 1
            cnot_index += 1
        elif isinstance(gate, Measure):
            mapped.measure(current[gate.qubit], gate.clbit)
        elif isinstance(gate, Barrier):
            mapped.append(Barrier(tuple(current[q] for q in gate.qubits)))
        elif gate.is_single_qubit:
            mapped.append(gate.remap({gate.qubits[0]: current[gate.qubits[0]]}))
        elif gate.num_qubits == 2:
            # Non-CNOT two-qubit gates (cz, swap) are not part of the paper's
            # gate set; reject them so the cost accounting stays honest.
            raise ReconstructionError(
                f"two-qubit gate {gate.name!r} is not supported; decompose the "
                "circuit into CNOT + single-qubit gates first"
            )
        else:
            raise ReconstructionError(f"unsupported gate {gate.name!r}")

    if cnot_index != len(schedule.mappings):
        raise ReconstructionError(
            f"schedule provides {len(schedule.mappings)} mappings but the circuit "
            f"has {cnot_index} CNOT gates"
        )

    original_gates = original.count_single_qubit() + original.count_cnot()
    cost = CostBreakdown(original_gates=original_gates, swaps=swaps, reversals=reversals)
    return mapped, cost


def build_result(
    original: QuantumCircuit,
    schedule: MappingSchedule,
    coupling: CouplingMap,
    engine: str,
    strategy: str,
    objective: Optional[int],
    optimal: bool,
    runtime_seconds: float,
    num_permutation_spots: Optional[int] = None,
    statistics: Optional[Dict[str, float]] = None,
    permutation_table: Optional[PermutationSynthesizer] = None,
) -> MappingResult:
    """Convenience helper assembling a :class:`MappingResult` from a schedule.

    A schedule that adds no operations is minimal whatever the search that
    found it, so ``optimal`` is set for every zero-cost result.
    """
    mapped, cost = reconstruct_circuit(
        original,
        schedule,
        coupling,
        permutation_table=permutation_table,
    )
    return MappingResult(
        mapped_circuit=mapped,
        original_circuit=original,
        schedule=schedule,
        cost=cost,
        objective=objective,
        optimal=optimal or cost.added_cost == 0,
        engine=engine,
        strategy=strategy,
        num_permutation_spots=num_permutation_spots,
        runtime_seconds=runtime_seconds,
        statistics=dict(statistics or {}),
    )


def default_schedule(num_logical: int, coupling: CouplingMap) -> MappingSchedule:
    """A trivial schedule for circuits without CNOT gates.

    Logical qubit ``j`` is placed on physical qubit ``j``.
    """
    if num_logical > coupling.num_qubits:
        raise ReconstructionError(
            f"circuit has {num_logical} logical qubits but the device only has "
            f"{coupling.num_qubits} physical qubits"
        )
    initial = tuple(range(num_logical))
    return MappingSchedule(
        num_logical=num_logical,
        num_physical=coupling.num_qubits,
        mappings=[],
        initial_mapping=initial,
    )


__all__ = [
    "ReconstructionError",
    "emit_swap",
    "emit_cnot",
    "reconstruct_circuit",
    "build_result",
    "default_schedule",
]

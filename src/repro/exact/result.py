"""Result objects shared by the exact and heuristic mappers.

Both result classes serialise losslessly to plain dictionaries
(:meth:`MappingResult.to_dict` / :meth:`MappingResult.from_dict`): circuits
travel as OpenQASM 2.0 text (the writer/parser round-trip preserves the
canonical gate stream), everything else as JSON-ready primitives.  This is
what the persistent :class:`~repro.service.store.ResultStore` writes to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.exact.cost import CostBreakdown

#: Version of the ``to_dict`` payload layout.  Bump on incompatible changes;
#: ``from_dict`` rejects payloads from other versions.
RESULT_SCHEMA_VERSION = 1


@dataclass
class MappingSchedule:
    """The raw output of a mapping engine, before circuit reconstruction.

    A schedule fixes, for every CNOT gate of the circuit's CNOT skeleton, the
    complete logical-to-physical mapping that is active when the gate
    executes.  The differences between consecutive mappings are realised by
    SWAP insertions during reconstruction; CNOTs placed against the coupling
    direction are realised with four extra Hadamards.

    Attributes:
        num_logical: Number of logical qubits ``n``.
        num_physical: Number of physical qubits ``m`` of the target device.
        mappings: One tuple per CNOT gate; ``mappings[k][j]`` is the physical
            qubit hosting logical qubit ``j`` right before CNOT ``k``.  Empty
            for circuits without CNOT gates.
        initial_mapping: The mapping before the first CNOT (equals
            ``mappings[0]`` when the circuit has CNOTs, otherwise a default
            placement).
    """

    num_logical: int
    num_physical: int
    mappings: List[Tuple[int, ...]] = field(default_factory=list)
    initial_mapping: Tuple[int, ...] = ()

    def final_mapping(self) -> Tuple[int, ...]:
        """The mapping active after the last CNOT gate."""
        if self.mappings:
            return self.mappings[-1]
        return self.initial_mapping

    def validate(self) -> None:
        """Raise ``ValueError`` when the schedule is malformed."""
        expected_length = self.num_logical
        all_mappings = [self.initial_mapping] + list(self.mappings)
        for mapping in all_mappings:
            if len(mapping) != expected_length:
                raise ValueError(
                    f"mapping {mapping!r} does not cover all {expected_length} logical qubits"
                )
            if len(set(mapping)) != len(mapping):
                raise ValueError(f"mapping {mapping!r} is not injective")
            for physical in mapping:
                if not 0 <= physical < self.num_physical:
                    raise ValueError(
                        f"physical qubit {physical} out of range in mapping {mapping!r}"
                    )

    def to_dict(self) -> Dict[str, Any]:
        """The schedule as a JSON-ready dictionary."""
        return {
            "num_logical": self.num_logical,
            "num_physical": self.num_physical,
            "mappings": [list(mapping) for mapping in self.mappings],
            "initial_mapping": list(self.initial_mapping),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MappingSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        return cls(
            num_logical=int(payload["num_logical"]),
            num_physical=int(payload["num_physical"]),
            mappings=[tuple(mapping) for mapping in payload["mappings"]],
            initial_mapping=tuple(payload["initial_mapping"]),
        )


@dataclass
class MappingResult:
    """Complete outcome of mapping a circuit to an architecture.

    Attributes:
        mapped_circuit: The architecture-compliant circuit over the device's
            physical qubits.
        original_circuit: The input circuit.
        schedule: The per-gate mapping schedule the circuit was built from.
        cost: Gate-count breakdown (original gates, SWAPs, reversals).
        objective: The engine's reported objective value ``F`` (added cost);
            for exact engines this equals ``cost.added_cost``.
        optimal: True when the engine proved the result minimal.
        engine: Name of the engine that produced the result
            (``"sat"``, ``"dp"``, ``"stochastic"``, ...).
        strategy: Name of the permutation-restriction strategy used.
        num_permutation_spots: The paper's ``|G'|`` (spots including the
            initial mapping); ``None`` for heuristic engines.
        runtime_seconds: Wall-clock mapping time.
        statistics: Engine-specific counters (solver conflicts, DP states,
            heuristic trials, ...).
    """

    mapped_circuit: QuantumCircuit
    original_circuit: QuantumCircuit
    schedule: MappingSchedule
    cost: CostBreakdown
    objective: Optional[int] = None
    optimal: bool = False
    engine: str = "unknown"
    strategy: str = "all"
    num_permutation_spots: Optional[int] = None
    runtime_seconds: float = 0.0
    statistics: Dict[str, float] = field(default_factory=dict)

    @property
    def added_cost(self) -> int:
        """Number of elementary operations added by the mapping (``F``)."""
        return self.cost.added_cost

    @property
    def total_cost(self) -> int:
        """Total number of elementary operations of the mapped circuit."""
        return self.cost.total_cost

    @property
    def initial_mapping(self) -> Tuple[int, ...]:
        """Logical-to-physical mapping before the first gate."""
        return self.schedule.initial_mapping

    @property
    def final_mapping(self) -> Tuple[int, ...]:
        """Logical-to-physical mapping after the last gate."""
        return self.schedule.final_mapping()

    def summary(self) -> str:
        """Short human-readable summary line."""
        flag = "minimal" if self.optimal else "not proven minimal"
        return (
            f"{self.engine}/{self.strategy}: total={self.total_cost} gates "
            f"(added {self.added_cost}: {self.cost.swaps} SWAPs, "
            f"{self.cost.reversals} reversals) [{flag}] "
            f"in {self.runtime_seconds:.2f}s"
        )

    # ------------------------------------------------------------------
    # Validation and serialization
    # ------------------------------------------------------------------
    def validate(self, coupling=None) -> None:
        """Raise ``ValueError`` when the result is internally inconsistent.

        Checks the mapping schedule (coverage, injectivity, range), the cost
        bookkeeping (the gate counts of the two circuits must imply exactly
        the added cost the :class:`CostBreakdown` reports) and, when a
        *coupling* is given, that every CNOT of the mapped circuit respects
        the architecture.  The persistent result store calls this before
        caching: a corrupt result must never be served to later callers.

        Args:
            coupling: Optional :class:`~repro.arch.coupling.CouplingMap` to
                additionally check coupling compliance against.
        """
        self.schedule.validate()
        if self.cost.swaps < 0 or self.cost.reversals < 0:
            raise ValueError(f"negative cost components in {self.cost}")
        recomputed_added = (
            self.mapped_circuit.gate_cost() - self.original_circuit.gate_cost()
        )
        if recomputed_added != self.cost.added_cost:
            raise ValueError(
                f"cost mismatch: gate counts imply {recomputed_added} added "
                f"operations but the breakdown reports {self.cost.added_cost}"
            )
        if coupling is not None:
            from repro.verify.compliance import check_coupling_compliance

            report = check_coupling_compliance(self.mapped_circuit, coupling)
            if not report.compliant:
                raise ValueError(
                    f"mapped circuit violates the coupling map at "
                    f"{report.violations[:5]}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the complete result as a JSON-ready dictionary.

        The circuits travel as OpenQASM 2.0 text; their names (which QASM
        does not carry) are stored alongside so :meth:`from_dict` restores
        them.  The payload is versioned via ``RESULT_SCHEMA_VERSION``.
        """
        from repro.circuit.qasm.writer import to_qasm

        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "mapped_circuit": to_qasm(self.mapped_circuit),
            "mapped_circuit_name": self.mapped_circuit.name,
            "original_circuit": to_qasm(self.original_circuit),
            "original_circuit_name": self.original_circuit.name,
            "schedule": self.schedule.to_dict(),
            "cost": {
                "original_gates": self.cost.original_gates,
                "swaps": self.cost.swaps,
                "reversals": self.cost.reversals,
            },
            "objective": self.objective,
            "optimal": self.optimal,
            "engine": self.engine,
            "strategy": self.strategy,
            "num_permutation_spots": self.num_permutation_spots,
            "runtime_seconds": self.runtime_seconds,
            "statistics": dict(self.statistics),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MappingResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises:
            ValueError: When the payload's schema version is unsupported.
        """
        from repro.circuit.qasm.parser import parse_qasm

        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported MappingResult payload version {version!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        mapped = parse_qasm(
            payload["mapped_circuit"], name=payload["mapped_circuit_name"]
        )
        original = parse_qasm(
            payload["original_circuit"], name=payload["original_circuit_name"]
        )
        objective = payload["objective"]
        spots = payload["num_permutation_spots"]
        return cls(
            mapped_circuit=mapped,
            original_circuit=original,
            schedule=MappingSchedule.from_dict(payload["schedule"]),
            cost=CostBreakdown(
                original_gates=int(payload["cost"]["original_gates"]),
                swaps=int(payload["cost"]["swaps"]),
                reversals=int(payload["cost"]["reversals"]),
            ),
            objective=None if objective is None else int(objective),
            optimal=bool(payload["optimal"]),
            engine=str(payload["engine"]),
            strategy=str(payload["strategy"]),
            num_permutation_spots=None if spots is None else int(spots),
            runtime_seconds=float(payload["runtime_seconds"]),
            statistics=dict(payload["statistics"]),
        )


__all__ = [
    "MappingSchedule",
    "MappingResult",
    "RESULT_SCHEMA_VERSION",
]

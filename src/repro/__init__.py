"""repro — exact mapping of quantum circuits to IBM QX architectures.

A from-scratch Python reproduction of

    R. Wille, L. Burgholzer, A. Zulehner:
    "Mapping Quantum Circuits to IBM QX Architectures Using the Minimal
    Number of SWAP and H Operations", DAC 2019.

The package bundles everything the paper's tool-flow needs: a quantum
circuit IR with an OpenQASM 2.0 front end, the IBM QX coupling maps, a CDCL
SAT solver with a weighted-objective optimiser (standing in for Z3), the
paper's symbolic mapping formulation with its performance improvements, a
dynamic-programming exact oracle, heuristic baselines, a simulator-based
equivalence checker and the Table-1 benchmark suite.

Quickstart::

    from repro import QuantumCircuit, ibm_qx4, SATMapper

    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    result = SATMapper(ibm_qx4()).map(circuit)
    print(result.summary())
"""

from repro.circuit import QuantumCircuit, parse_qasm, parse_qasm_file, to_qasm
from repro.arch import (
    CouplingMap,
    ibm_qx2,
    ibm_qx4,
    ibm_qx5,
    ibm_tokyo,
    linear_architecture,
    ring_architecture,
    grid_architecture,
    fully_connected_architecture,
    get_architecture,
)
from repro.exact import (
    SATMapper,
    DPMapper,
    MappingResult,
    MappingSchedule,
    SWAP_COST,
    REVERSAL_COST,
    get_strategy,
    available_strategies,
)
from repro.heuristic import StochasticSwapMapper, SabreLiteMapper
from repro.pipeline import (
    BatchItem,
    MappingPipeline,
    available_mappers,
    get_mapper,
    register_mapper,
)
from repro.verify import check_coupling_compliance, verify_result
from repro.benchlib import benchmark_circuit, benchmark_names, get_record
from repro.service import (
    MappingService,
    ResultStore,
    ServiceError,
    job_fingerprint,
)

__version__ = "1.0.0"

#: Served on first access so that mapping alone never imports numpy.
_SIMULATION_EXPORTS = ("StatevectorSimulator", "mapped_circuit_equivalent")


def __getattr__(name):
    if name in _SIMULATION_EXPORTS:
        import repro.sim

        return getattr(repro.sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "QuantumCircuit",
    "parse_qasm",
    "parse_qasm_file",
    "to_qasm",
    "CouplingMap",
    "ibm_qx2",
    "ibm_qx4",
    "ibm_qx5",
    "ibm_tokyo",
    "linear_architecture",
    "ring_architecture",
    "grid_architecture",
    "fully_connected_architecture",
    "get_architecture",
    "SATMapper",
    "DPMapper",
    "MappingResult",
    "MappingSchedule",
    "SWAP_COST",
    "REVERSAL_COST",
    "get_strategy",
    "available_strategies",
    "StochasticSwapMapper",
    "SabreLiteMapper",
    "BatchItem",
    "MappingPipeline",
    "available_mappers",
    "get_mapper",
    "register_mapper",
    "StatevectorSimulator",
    "mapped_circuit_equivalent",
    "check_coupling_compliance",
    "verify_result",
    "benchmark_circuit",
    "benchmark_names",
    "get_record",
    "MappingService",
    "ResultStore",
    "ServiceError",
    "job_fingerprint",
    "__version__",
]

"""Batch-map Table-1 circuits through the mapping pipeline.

Demonstrates the production-shaped entry points added on top of the paper's
algorithms:

* engine resolution through the mapper backend registry,
* ``MappingPipeline.map_many`` with structured per-item results,
* a caller's upper bound (here SabreLite's cost) seeding the SAT engine
  through the seed resolver ``BoundProviderChain``,
* the process-wide permutation-table / subset caches.

Run with::

    PYTHONPATH=src python examples/batch_pipeline.py
"""

from repro import MappingPipeline, get_mapper, ibm_qx4
from repro.benchlib import benchmark_circuit, benchmark_names, paper_example_cnot_skeleton
from repro.circuit import QuantumCircuit
from repro.pipeline import BoundProviderChain, cache_stats


def main() -> None:
    qx4 = ibm_qx4()

    # ------------------------------------------------------------------
    # Batch mapping: the 3-qubit Table-1 circuits plus one circuit that is
    # too large for the device — its failure is reported structurally and
    # does not poison the batch.
    too_big = QuantumCircuit(9, name="too_big_for_qx4")
    too_big.cx(0, 8)
    circuits = [benchmark_circuit(name) for name in benchmark_names(max_qubits=3)]
    circuits.append(too_big)

    pipeline = MappingPipeline(
        qx4,
        engine="sat",
        engine_options={"strategy": "triangle", "use_subsets": True},
        workers=4,
    )
    print("batch mapping (sat engine, triangle strategy, subsets):")
    for item in pipeline.map_many(circuits):
        if item.ok:
            print(f"  {item.name:18s} added cost {item.result.added_cost:3d} "
                  f"({item.elapsed_seconds:.2f} s)")
        else:
            print(f"  {item.name:18s} FAILED: {item.error_type}: {item.error}")

    # ------------------------------------------------------------------
    # A caller's bound on the paper's running example: SabreLite's cost
    # seeds the SAT engine, which proves the minimum of 4.  DP's schedule
    # already starts the search at that minimum, so the bound changes
    # nothing here; beyond DP's state limit it is what the search starts at.
    circuit = paper_example_cnot_skeleton()
    bound = get_mapper("sabre", qx4).map(circuit).added_cost
    seeded = MappingPipeline(
        qx4, engine="sat", seeds=BoundProviderChain(upper_bound=bound)
    )
    result = seeded.map(circuit)
    print("\nsat seeded with SabreLite's bound on the paper example:")
    print(f"  heuristic bound     : {bound}")
    print(f"  proven minimal cost : {result.added_cost} (optimal: {result.optimal})")
    print(f"  solver iterations   : {result.statistics['solver_iterations']:.0f}")

    # ------------------------------------------------------------------
    print("\nshared caches:", cache_stats())


if __name__ == "__main__":
    main()

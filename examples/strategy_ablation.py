#!/usr/bin/env python3
"""Ablation of the Section-4.2 permutation-restriction strategies.

For a selection of Table-1 benchmarks, maps each circuit with every strategy
(permutations before all gates, disjoint-qubit boundaries, odd gates, qubit
triangles and a sliding window) and prints the number of permutation spots
|G'|, the resulting cost and the distance to the minimum — the trade-off
Table 1 illustrates.  A strategy whose spots leave no valid mapping sequence
is printed as infeasible.

Run with::

    python examples/strategy_ablation.py
    python examples/strategy_ablation.py --benchmarks ex-1_166 miller_11
"""

import argparse

from repro import DPMapper, ibm_qx4
from repro.benchlib import benchmark_circuit
from repro.exact import get_strategy
from repro.exact.strategies import WindowStrategy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", nargs="+",
        default=["3_17_13", "ex-1_166", "rd32-v0_66", "4mod5-v0_19", "alu-v0_27"],
        help="Table-1 benchmark names to ablate",
    )
    args = parser.parse_args()

    qx4 = ibm_qx4()
    strategies = [
        ("all", get_strategy("all")),
        ("disjoint", get_strategy("disjoint")),
        ("odd", get_strategy("odd")),
        ("triangle", get_strategy("triangle")),
        ("window-4", WindowStrategy(window=4)),
    ]

    for name in args.benchmarks:
        circuit = benchmark_circuit(name)
        print(f"\n{name}  ({circuit.num_qubits} qubits, "
              f"{circuit.count_cnot()} CNOTs, {circuit.gate_cost()} gates)")
        print(f"  {'strategy':10s} {'|G prime|':>9s} {'total':>6s} {'added':>6s} "
              f"{'delta-min':>9s} {'time[s]':>8s}")
        minimal_cost = None
        for label, strategy in strategies:
            try:
                result = DPMapper(qx4, strategy=strategy).map(circuit)
            except ValueError as error:
                # Too few spots to move the qubits where a gate needs them.
                print(f"  {label:10s} infeasible: {error}")
                continue
            if label == "all":
                minimal_cost = result.added_cost
            delta = result.added_cost - minimal_cost
            print(
                f"  {label:10s} {result.num_permutation_spots:9d} "
                f"{result.total_cost:6d} {result.added_cost:6d} "
                f"{delta:9d} {result.runtime_seconds:8.2f}"
            )


if __name__ == "__main__":
    main()

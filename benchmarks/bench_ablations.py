"""Ablation benchmarks for the design choices called out in DESIGN.md.

* objective search strategy of the optimiser (the paper's linear descent
  vs. the core-guided default),
* exact engine choice (paper-style SAT formulation vs. DP oracle),
* heuristic baseline strength (Qiskit-0.4-style stochastic mapper vs. the
  SABRE-style look-ahead mapper).
"""

import pytest

from repro.benchlib import benchmark_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact import DPMapper, SATMapper
from repro.exact.encoding import build_encoding
from repro.heuristic import SabreLiteMapper, StochasticSwapMapper
from repro.sat.optimize import OptimizingSolver


def _example_encoding(qx4):
    subset_coupling = qx4.subgraph((0, 1, 2, 3))
    gates = paper_example_cnot_skeleton().cnot_pairs()
    return build_encoding(gates, 4, subset_coupling)


@pytest.mark.parametrize("strategy", ["linear", "core"])
def test_optimizer_search_strategy(benchmark, qx4, strategy):
    """Linear descent vs. core-guided descent on the same mapping instance."""
    encoding = _example_encoding(qx4)

    def run():
        return OptimizingSolver(encoding.cnf, encoding.objective).minimize(
            strategy=strategy
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.is_satisfiable
    benchmark.extra_info["objective"] = result.objective
    benchmark.extra_info["solver_calls"] = result.iterations
    benchmark.extra_info["conflicts"] = result.conflicts


@pytest.mark.parametrize("engine", ["sat", "dp"])
def test_exact_engine_choice(benchmark, qx4, engine):
    """Paper-style SAT engine vs. the DP oracle on the worked example."""
    circuit = paper_example_cnot_skeleton()
    if engine == "sat":
        mapper = SATMapper(qx4, use_subsets=True, time_limit=300.0)
    else:
        mapper = DPMapper(qx4)
    result = benchmark.pedantic(mapper.map, args=(circuit,), rounds=1, iterations=1)
    benchmark.extra_info["added_cost"] = result.added_cost
    benchmark.extra_info["engine"] = engine


@pytest.mark.parametrize("name", ["4mod5-v0_20", "alu-v0_27"])
@pytest.mark.parametrize("baseline", ["stochastic", "sabre"])
def test_heuristic_baseline_strength(benchmark, qx4, minimal_costs, name, baseline):
    """How far each heuristic generation sits above the exact minimum."""
    circuit = benchmark_circuit(name)
    if baseline == "stochastic":
        mapper = StochasticSwapMapper(qx4, trials=5, seed=0)
    else:
        mapper = SabreLiteMapper(qx4)
    result = benchmark.pedantic(mapper.map, args=(circuit,), rounds=1, iterations=1)
    assert result.added_cost >= minimal_costs[name]
    benchmark.extra_info["benchmark"] = name
    benchmark.extra_info["baseline"] = baseline
    benchmark.extra_info["added_cost"] = result.added_cost
    benchmark.extra_info["minimal_added_cost"] = minimal_costs[name]

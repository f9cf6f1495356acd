"""Re-implementation of the Qiskit-0.4-era stochastic swap mapper.

This is the baseline the paper compares against (Table 1, last column,
"IBM [12]").  The algorithm processes the circuit layer by layer (gates on
pairwise disjoint qubits); whenever a layer contains a CNOT whose qubits are
not adjacent under the current layout, a randomised greedy search inserts
SWAPs that reduce the total distance between the CNOT endpoints of the layer.
The whole mapping is repeated for a number of independent trials with
different random seeds and the cheapest result is kept — the paper ran
Qiskit's probabilistic mapper 5 times and reported the observed minimum.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.cache import shared_distance_matrix
from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.layers import front_layers
from repro.heuristic.base import HeuristicMapper, _MappingTrace
from repro.heuristic.initial_layout import random_layout, trivial_layout

#: Safety bound on SWAP insertions per layer.
MAX_SWAPS_PER_LAYER = 100


class StochasticSwapMapper(HeuristicMapper):
    """Layer-by-layer randomised SWAP insertion (Qiskit 0.4 style).

    The first trial starts from the trivial layout, as Qiskit 0.4 did; every
    later trial starts from a random initial layout.

    Args:
        coupling: Target architecture.
        trials: Number of independent randomised mapping attempts; the
            cheapest mapped circuit is returned (the paper uses 5).
        seed: Seed of the pseudo-random generator (for reproducibility).
    """

    name = "stochastic"

    def __init__(
        self,
        coupling: CouplingMap,
        trials: int = 5,
        seed: Optional[int] = 0,
    ):
        super().__init__(coupling)
        if trials < 1:
            raise ValueError("trials must be at least 1")
        self.trials = trials
        self.seed = seed
        self._distances = shared_distance_matrix(coupling)

    # ------------------------------------------------------------------
    def _layer_distance(self, trace: _MappingTrace,
                        cnots: Sequence[Tuple[int, int]]) -> int:
        """Sum of physical distances between the endpoints of the layer's CNOTs."""
        total = 0
        for control, target in cnots:
            total += self._distances[trace.physical(control)][trace.physical(target)]
        return total

    def _layer_executable(self, trace: _MappingTrace,
                          cnots: Sequence[Tuple[int, int]]) -> bool:
        return all(
            self.coupling.connected(trace.physical(control), trace.physical(target))
            for control, target in cnots
        )

    def _route_layer(self, trace: _MappingTrace,
                     cnots: Sequence[Tuple[int, int]],
                     rng: random.Random) -> None:
        """Insert SWAPs until every CNOT of the layer acts on coupled qubits."""
        swaps_inserted = 0
        while not self._layer_executable(trace, cnots):
            if swaps_inserted >= MAX_SWAPS_PER_LAYER:
                raise RuntimeError(
                    "stochastic swap search exceeded the per-layer SWAP budget"
                )
            current = self._layer_distance(trace, cnots)
            best_edges: List[Tuple[int, int]] = []
            best_score: Optional[float] = None
            for edge in sorted(self.coupling.undirected_edges):
                # Tentatively apply the swap on the layout only.
                layout = list(trace.layout)
                for logical, physical in enumerate(layout):
                    if physical == edge[0]:
                        layout[logical] = edge[1]
                    elif physical == edge[1]:
                        layout[logical] = edge[0]
                score = 0
                for control, target in cnots:
                    score += self._distances[layout[control]][layout[target]]
                noise = rng.uniform(0.0, 0.5)
                total = score + noise
                if best_score is None or total < best_score:
                    best_score = total
                    best_edges = [edge]
            # Require progress with high probability; allow occasional sideways
            # moves so the search does not get stuck in local minima.
            chosen = best_edges[0]
            trace.apply_swap(chosen[0], chosen[1])
            swaps_inserted += 1
            new_distance = self._layer_distance(trace, cnots)
            if new_distance > current and rng.random() < 0.5 and swaps_inserted > 1:
                # Undo unproductive oscillation by swapping back.
                trace.apply_swap(chosen[0], chosen[1])
                swaps_inserted += 1

    # ------------------------------------------------------------------
    def _single_trial(self, circuit: QuantumCircuit,
                      initial_layout: Tuple[int, ...],
                      rng: random.Random) -> _MappingTrace:
        trace = _MappingTrace(
            self.coupling,
            circuit.num_qubits,
            initial_layout,
            circuit.num_clbits,
            f"{circuit.name}_mapped",
        )
        layers = front_layers(circuit)
        for layer in layers:
            gates = [circuit.gates[index] for index in layer]
            cnots = [(g.control, g.target) for g in gates if g.is_cnot]
            if cnots:
                self._route_layer(trace, cnots, rng)
            for gate in gates:
                if gate.is_cnot:
                    trace.apply_cnot(gate.control, gate.target)
                else:
                    trace.apply_other(gate)
        return trace

    def _run(self, circuit: QuantumCircuit) -> _MappingTrace:
        rng = random.Random(self.seed)
        best_trace: Optional[_MappingTrace] = None
        best_cost: Optional[int] = None
        for trial in range(self.trials):
            if trial == 0:
                layout = trivial_layout(circuit, self.coupling)
            else:
                layout = random_layout(circuit, self.coupling, rng)
            trial_rng = random.Random(rng.random())
            trace = self._single_trial(circuit, layout, trial_rng)
            cost = trace.circuit.gate_cost()
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_trace = trace
        assert best_trace is not None
        best_trace.statistics["trials"] = float(self.trials)
        return best_trace


__all__ = ["StochasticSwapMapper"]

"""A simplified SABRE-style look-ahead swap mapper.

This second heuristic baseline is more recent than the Qiskit-0.4 stochastic
mapper: it keeps a *front layer* of CNOTs whose dependencies are satisfied
and greedily chooses SWAPs that minimise a weighted sum of the distances of
the front layer and of an extended look-ahead window (Li, Ding, Xie,
"Tackling the qubit mapping problem for NISQ-era quantum devices", ASPLOS
2019 — reference [13] of the paper).  It is included as an extension
experiment to show where the exact minimum sits relative to a stronger
heuristic than the one the paper compared against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.cache import shared_distance_matrix
from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.heuristic.base import HeuristicMapper, _MappingTrace
from repro.heuristic.initial_layout import greedy_interaction_layout

#: Number of upcoming CNOTs in the extended (look-ahead) cost set.
LOOKAHEAD = 20
#: Weight of the extended set's mean distance in the SWAP score.
LOOKAHEAD_WEIGHT = 0.5


class SabreLiteMapper(HeuristicMapper):
    """Front-layer + look-ahead SWAP selection.

    Mapping starts from the interaction-aware greedy layout; the SWAP score
    adds :data:`LOOKAHEAD_WEIGHT` times the mean distance of the next
    :data:`LOOKAHEAD` CNOTs to the front layer's total distance.

    Args:
        coupling: Target architecture.
        seed: Random tie-breaking seed.
    """

    name = "sabre_lite"

    def __init__(
        self,
        coupling: CouplingMap,
        seed: Optional[int] = 0,
    ):
        super().__init__(coupling)
        self.seed = seed
        # Shared per-architecture matrix: the lookahead reads it, never
        # writes, so heuristics and the routed synthesizer share one copy.
        self._distances = shared_distance_matrix(coupling)

    # ------------------------------------------------------------------
    def _distance(self, trace: _MappingTrace, control: int, target: int) -> int:
        return self._distances[trace.physical(control)][trace.physical(target)]

    def _score(self, layout: Sequence[int],
               front: Sequence[Tuple[int, int]],
               extended: Sequence[Tuple[int, int]]) -> float:
        front_score = sum(
            self._distances[layout[c]][layout[t]] for c, t in front
        )
        if not extended:
            return float(front_score)
        extended_score = sum(
            self._distances[layout[c]][layout[t]] for c, t in extended
        ) / len(extended)
        return front_score + LOOKAHEAD_WEIGHT * extended_score

    # ------------------------------------------------------------------
    def _run(self, circuit: QuantumCircuit) -> _MappingTrace:
        rng = random.Random(self.seed)
        trace = _MappingTrace(
            self.coupling,
            greedy_interaction_layout(circuit, self.coupling),
            circuit.num_clbits,
            f"{circuit.name}_mapped",
        )

        gates = list(circuit.gates)
        emitted = [False] * len(gates)
        swaps_without_progress = 0

        def dependencies_satisfied(index: int) -> bool:
            qubits = set(gates[index].qubits)
            for earlier in range(index):
                if not emitted[earlier] and qubits & set(gates[earlier].qubits):
                    return False
            return True

        while not all(emitted):
            progress = False
            # Emit every gate whose dependencies are satisfied and that is
            # directly executable (single-qubit gates always are).
            for index, gate in enumerate(gates):
                if emitted[index] or not dependencies_satisfied(index):
                    continue
                if not gate.is_cnot:
                    trace.apply_other(gate)
                    emitted[index] = True
                    progress = True
                    continue
                if self.coupling.connected(
                    trace.physical(gate.control), trace.physical(gate.target)
                ):
                    trace.apply_cnot(gate.control, gate.target)
                    emitted[index] = True
                    progress = True
            if all(emitted):
                break
            if progress:
                swaps_without_progress = 0
                continue
            # No gate is executable: pick a SWAP guided by the front layer and
            # a look-ahead window of upcoming CNOTs.
            front = [
                (gates[i].control, gates[i].target)
                for i in range(len(gates))
                if not emitted[i] and gates[i].is_cnot and dependencies_satisfied(i)
            ]
            upcoming = [
                (gates[i].control, gates[i].target)
                for i in range(len(gates))
                if not emitted[i] and gates[i].is_cnot
            ][:LOOKAHEAD]
            best_edge: Optional[Tuple[int, int]] = None
            best_score: Optional[float] = None
            for edge in sorted(self.coupling.undirected_edges):
                layout_candidate = list(trace.layout)
                for logical, physical in enumerate(layout_candidate):
                    if physical == edge[0]:
                        layout_candidate[logical] = edge[1]
                    elif physical == edge[1]:
                        layout_candidate[logical] = edge[0]
                score = self._score(layout_candidate, front, upcoming)
                score += rng.uniform(0.0, 1e-3)
                if best_score is None or score < best_score:
                    best_score = score
                    best_edge = edge
            assert best_edge is not None
            trace.apply_swap(best_edge[0], best_edge[1])
            swaps_without_progress += 1
            if swaps_without_progress > 10 * self.coupling.num_qubits:
                raise RuntimeError("SABRE-lite failed to make progress")
        trace.statistics["lookahead"] = float(LOOKAHEAD)
        return trace


__all__ = ["SabreLiteMapper"]

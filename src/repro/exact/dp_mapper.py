"""Exact mapping by dynamic programming over complete mappings.

The paper's cost function decomposes over the gate sequence: before every
CNOT the mapping may change (charged ``7 * swaps(pi)`` for the cheapest
permutation realising the change) and every CNOT placed against the coupling
direction costs 4.  For a fixed, small device the set of complete
logical-to-physical mappings is tiny (at most ``m! / (m - n)!``), so the
minimum of the paper's objective can be computed exactly by a shortest-path /
dynamic-programming sweep over "(gate index, mapping)" states.

This engine is *not* the paper's method (the paper uses a reasoning engine on
the symbolic formulation), but it computes the same minimum.  It serves two
purposes in this reproduction:

* as an independent oracle to cross-check the SAT formulation in the test
  suite (both engines must agree on the minimal cost),
* as a fast way to produce the "minimal" column of Table 1 for the larger
  benchmark circuits, where the pure-Python SAT optimiser would need
  impractically long runtimes.

The permutation-restriction strategies of Section 4.2 are supported in the
same way as in the SAT engine: between gates that are not permutation spots
the mapping must stay unchanged.

What is precomputed, and where: the mapping states and their SWAP edges,
one :class:`~repro.arch.permutations.MappingGraph` per ``(coupling, number
of logical qubits)``, shared process-wide through
:func:`repro.arch.cache.shared_mapping_graph`, so a fresh ``DPMapper`` (the
pipeline builds one per job) starts warm after the first job on a device.
No distance is stored: each permutation spot runs one multi-source
shortest-path search over the graph, a pass over the states and their SWAP
edges instead of a comparison per pair of states.  The device's
:class:`~repro.arch.permutations.PermutationTable` is used only to
reconstruct the SWAP sequences of the result.

Output contract: states are numbered in ``itertools.permutations(range(m),
n)`` order, a state keeps the cheapest predecessor of least index (the
first strictly cheaper one in ascending order), and the final state is the
first of minimal cost; so schedules and mapped circuits do not depend on
how the minimum is computed.  ``transitions_evaluated`` counts the state
pairs the spots' minima cover (previous states times valid states per
spot, reachable or not), not pairs visited one by one.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.cache import shared_mapping_graph, shared_permutation_table
from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.exact.reconstruction import build_result, default_schedule
from repro.exact.result import MappingResult, MappingSchedule
from repro.exact.strategies import AllGatesStrategy, PermutationStrategy

State = Tuple[int, ...]


class DPMapper:
    """Exact mapper based on dynamic programming over complete mappings.

    Each ``map`` call reads the process-wide mapping graph of its device and
    logical-qubit count (built by the first call that needs it) and keeps
    the module's order-and-tie-break contract, so its output does not depend
    on whether the graph was cold or warm.

    Args:
        coupling: Target architecture.  The DP's size limit is its state count
            ``m! / (m - n)!`` (at most
            :data:`~repro.arch.permutations.MAX_MAPPING_STATES`, since each
            permutation spot searches every state); reconstructing the
            SWAP sequences from the device's permutation table further limits
            the device to 8 physical qubits.
        strategy: Permutation-restriction strategy (defaults to permutations
            before every gate, i.e. the minimal formulation).

    Example:
        >>> from repro.arch import ibm_qx4
        >>> from repro.circuit import QuantumCircuit
        >>> circuit = QuantumCircuit(3)
        >>> circuit.cx(0, 1).cx(1, 2).cx(0, 2)
        >>> result = DPMapper(ibm_qx4()).map(circuit)
        >>> result.optimal
        True
    """

    def __init__(
        self,
        coupling: CouplingMap,
        strategy: Optional[PermutationStrategy] = None,
    ):
        self.coupling = coupling
        self.strategy = strategy if strategy is not None else AllGatesStrategy()
        self._table = shared_permutation_table(coupling)

    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit) -> MappingResult:
        """Map *circuit* and return the minimal-cost result.

        Raises:
            ValueError: If the circuit needs more logical qubits than the
                device offers, or a CNOT cannot be placed at all.
        """
        start = time.monotonic()
        num_logical = circuit.num_qubits
        num_physical = self.coupling.num_qubits
        if num_logical > num_physical:
            raise ValueError(
                f"circuit has {num_logical} logical qubits but the device only "
                f"has {num_physical}"
            )
        cnot_gates = circuit.cnot_gates()
        gates = [(gate.control, gate.target) for gate in cnot_gates]
        if not gates:
            schedule = default_schedule(num_logical, self.coupling)
            return build_result(
                circuit, schedule, self.coupling,
                engine="dp", strategy=self.strategy.name,
                objective=0, optimal=True,
                runtime_seconds=time.monotonic() - start,
                num_permutation_spots=0,
                statistics={"states": 0},
                permutation_table=self._table,
            )

        spots = set(self.strategy.spots(cnot_gates, self.coupling))
        spots.add(0)
        mappings, objective, transitions_evaluated = dp_schedule(
            self.coupling, num_logical, gates, spots
        )
        schedule = MappingSchedule(
            num_logical=num_logical,
            num_physical=num_physical,
            mappings=mappings,
            initial_mapping=mappings[0],
        )
        runtime = time.monotonic() - start
        return build_result(
            circuit,
            schedule,
            self.coupling,
            engine="dp",
            strategy=self.strategy.name,
            objective=objective,
            optimal=self.strategy.guarantees_minimality,
            runtime_seconds=runtime,
            num_permutation_spots=len(spots),
            statistics={
                "states": math.perm(num_physical, num_logical),
                "transitions_evaluated": transitions_evaluated,
            },
            permutation_table=self._table,
        )


def dp_schedule(
    coupling: CouplingMap,
    num_logical: int,
    gates: Sequence[Tuple[int, int]],
    spots: Iterable[int],
) -> Tuple[List[State], int, int]:
    """The minimal-cost mapping sequence of a CNOT sequence, by DP.

    Args:
        coupling: The device (its state count ``m! / (m - n)!`` must fit
            :data:`~repro.arch.permutations.MAX_MAPPING_STATES`).
        num_logical: Logical qubits ``n`` of every mapping.
        gates: The ``(control, target)`` pairs, at least one.
        spots: Gate indices before which the mapping may change; between
            other gates it stays fixed (the mapping before gate 0 is always
            free).

    Returns:
        ``(mappings, objective, transitions_evaluated)``: one
        logical-to-physical mapping per gate, the paper's added cost of that
        sequence, and the number of state pairs the permutation spots'
        minima cover (reachable or not).  States, predecessors and ties
        follow the module's output contract.

    Raises:
        ValueError: If the device has too many states, a CNOT cannot be
            placed on any coupled pair, or no mapping sequence respects
            *spots*.
    """
    graph = shared_mapping_graph(coupling, num_logical)
    all_states = graph.states
    spots = set(spots)

    # Valid states per distinct gate, as (state index, placement cost): the
    # gate's qubits must sit on a coupled pair.
    placements: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    valid_states: List[List[Tuple[int, int]]] = []
    for control, target in gates:
        options = placements.get((control, target))
        if options is None:
            options = []
            for index, state in enumerate(all_states):
                physical_control = state[control]
                physical_target = state[target]
                if coupling.allows_cnot(physical_control, physical_target):
                    options.append((index, 0))
                elif coupling.allows_cnot(physical_target, physical_control):
                    options.append((index, REVERSAL_COST))
            if not options:
                raise ValueError(
                    f"CNOT({control}, {target}) cannot be placed on any coupled pair"
                )
            placements[control, target] = options
        valid_states.append(options)

    # Dynamic programming over (gate, state index); ``best`` is filled in
    # ascending index order.
    best: Dict[int, int] = dict(valid_states[0])
    parents: List[Dict[int, int]] = [{}]

    transitions_evaluated = 0
    for k in range(1, len(gates)):
        new_best: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        if k in spots:
            transitions_evaluated += len(best) * len(valid_states[k])
            costs, origins = _cheapest_arrivals(graph.neighbours, best)
            for index, gate_cost in valid_states[k]:
                cost = costs[index]
                if cost is not None:
                    new_best[index] = cost + gate_cost
                    parent[index] = origins[index]
        else:
            for index, gate_cost in valid_states[k]:
                previous_cost = best.get(index)
                if previous_cost is not None:
                    new_best[index] = previous_cost + gate_cost
                    parent[index] = index
        if not new_best:
            raise ValueError(
                f"no valid mapping exists before gate {k} when the mapping "
                f"may change only at the permutation spots"
            )
        best = new_best
        parents.append(parent)

    # Recover the optimal mapping sequence.
    final_index = min(best, key=best.get)  # type: ignore[arg-type]
    objective = best[final_index]
    sequence: List[int] = [final_index]
    current = final_index
    for k in range(len(gates) - 1, 0, -1):
        current = parents[k][current]
        sequence.append(current)
    sequence.reverse()
    return [all_states[index] for index in sequence], objective, transitions_evaluated


def _cheapest_arrivals(
    neighbours: Sequence[Sequence[int]], sources: Dict[int, int]
) -> Tuple[List[Optional[int]], List[int]]:
    """The least ``(cost, origin)`` of every state over all *sources*.

    A multi-source shortest-path search over the SWAP graph: each source
    starts at its own cost and each edge costs :data:`SWAP_COST`.  Dial
    buckets keyed by cost settle the states in cost order; a state's origin
    (the least-index source among its cheapest) is final once every bucket
    below its cost has been expanded.  Returns ``(costs, origins)`` by
    state, with cost ``None`` where no source reaches.
    """
    costs: List[Optional[int]] = [None] * len(neighbours)
    origins = [0] * len(neighbours)
    buckets: Dict[int, List[int]] = {}
    for state, cost in sources.items():
        costs[state] = cost
        origins[state] = state
        buckets.setdefault(cost, []).append(state)
    while buckets:
        cost = min(buckets)
        reached = cost + SWAP_COST
        arrivals = buckets.setdefault(reached, [])
        for state in buckets.pop(cost):
            if costs[state] != cost:
                continue  # reached more cheaply since it was queued
            origin = origins[state]
            for neighbour in neighbours[state]:
                known = costs[neighbour]
                if known is None or known > reached:
                    costs[neighbour] = reached
                    origins[neighbour] = origin
                    arrivals.append(neighbour)
                elif known == reached and origin < origins[neighbour]:
                    origins[neighbour] = origin
        if not arrivals:
            del buckets[reached]
    return costs, origins


__all__ = ["DPMapper", "dp_schedule"]

"""Windowed circuit splitting: exact windows stitched by synthesized SWAPs.

The paper's scalability lever for deep circuits and big devices: the CNOT
stream is chunked into *windows*, each window is solved **exactly** on a
connected sub-coupling of at most
:data:`~repro.arch.synthesis.EXHAUSTIVE_SYNTHESIS_MAX_QUBITS` active qubits
(reusing the full subset-family sweep of
:class:`~repro.exact.sat_mapper.SATMapper`), and adjacent windows are
stitched with permutations synthesized by the polynomial routed backend
(:mod:`repro.arch.synthesis`).  The result is an end-to-end mapping on
devices far beyond the permutation-table wall — ``ibm_qx5`` (16 qubits),
``ibm_tokyo`` (20 qubits) — at the price of global optimality: each window's
objective is provably minimal *for that window*, the stitches are
upper-bound SWAP sequences, so the combined result reports
``optimal=False``.

Provenance: the result's ``statistics`` record the window layout
(``split_windows``, ``split_window_size``), per-window exact objectives
(``window_objectives``), per-boundary stitch SWAP counts (``stitch_swaps``)
and their total, plus the summed solver counters of all windows.

The engine registers as ``sat_split`` (alias ``split``) and is reachable
from the CLI as ``--engine sat --split-window N``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.cache import shared_distance_matrix, shared_synthesizer
from repro.arch.coupling import CouplingMap
from repro.arch.synthesis import EXHAUSTIVE_SYNTHESIS_MAX_QUBITS
from repro.circuit.circuit import QuantumCircuit
from repro.exact.reconstruction import build_result, default_schedule
from repro.exact.result import MappingResult, MappingSchedule
from repro.exact.sat_mapper import SATMapper, SATMapperError
from repro.sat.optimize import DEFAULT_OPTIMIZER, resolve_optimizer_name

#: Default number of CNOT gates per window.
DEFAULT_WINDOW_SIZE = 8

#: Default cap on active logical qubits per window.  Deliberately below the
#: exhaustive-synthesis ceiling: the per-spot objective grows with the
#: sub-coupling's permutation count (``5! = 120`` vs ``8! = 40320``), and the
#: paper's own subset experiments stop at 5 qubits.
DEFAULT_QUBIT_CAP = 5


class SplittingError(RuntimeError):
    """Raised when a circuit cannot be mapped by windowed splitting."""


def partition_windows(
    gates: Sequence[Tuple[int, int]],
    window_size: int,
    qubit_cap: int,
) -> List[List[int]]:
    """Chunk CNOT indices into windows bounded by gate count and active qubits.

    A window closes when it holds *window_size* CNOTs or when admitting the
    next CNOT would push its active logical-qubit set past *qubit_cap* (the
    exact-solve ceiling).  Every CNOT touches two qubits, so any cap of at
    least two admits every gate into some window.

    Args:
        gates: The circuit's CNOT skeleton as (control, target) pairs.
        window_size: Maximum CNOTs per window (at least 1).
        qubit_cap: Maximum distinct logical qubits per window (at least 2).

    Returns:
        Consecutive, non-empty lists of gate indices covering ``range(len(gates))``.
    """
    if window_size < 1:
        raise ValueError("split window size must be at least 1")
    if qubit_cap < 2:
        raise ValueError("split qubit cap must be at least 2")
    windows: List[List[int]] = []
    current: List[int] = []
    active: set = set()
    for index, (control, target) in enumerate(gates):
        grown = active | {control, target}
        if current and (len(current) >= window_size or len(grown) > qubit_cap):
            windows.append(current)
            current = []
            grown = {control, target}
        current.append(index)
        active = grown
    if current:
        windows.append(current)
    return windows


class SplitSATMapper:
    """Windowed exact mapping for devices beyond the permutation-table wall.

    Args:
        coupling: Target architecture (any size).
        window_size: CNOT gates per window (the CLI's ``--split-window``).
        qubit_cap: Maximum active logical qubits per window; defaults to the
            exact-synthesis ceiling and must not exceed it (each window is
            solved on the permutation table of its sub-coupling).
        strategy: Permutation-restriction strategy forwarded to each
            window's :class:`SATMapper`.
        optimizer: Descent forwarded to window solves (``"core"``, the
            default, or ``"linear"``); validated at construction time.
        time_limit: Overall wall-clock budget in seconds, shared across
            windows (each window sees the remaining budget).
    """

    name = "sat_split"

    def __init__(
        self,
        coupling: CouplingMap,
        window_size: int = DEFAULT_WINDOW_SIZE,
        qubit_cap: int = DEFAULT_QUBIT_CAP,
        strategy: Any = None,
        optimizer: str = DEFAULT_OPTIMIZER,
        time_limit: Optional[float] = None,
    ):
        if window_size < 1:
            raise ValueError("split window size must be at least 1")
        if not 2 <= qubit_cap <= EXHAUSTIVE_SYNTHESIS_MAX_QUBITS:
            raise ValueError(
                "split qubit cap must be between 2 and "
                f"{EXHAUSTIVE_SYNTHESIS_MAX_QUBITS} (windows are solved exactly)"
            )
        self.coupling = coupling
        self.window_size = window_size
        self.qubit_cap = qubit_cap
        self.strategy = strategy
        self.optimizer = resolve_optimizer_name(optimizer)
        self.time_limit = time_limit

    # ------------------------------------------------------------------
    def _window_mapper(self, remaining: Optional[float]) -> SATMapper:
        return SATMapper(
            self.coupling,
            strategy=self.strategy,
            use_subsets=True,
            optimizer=self.optimizer,
            time_limit=remaining,
        )

    def _park_displaced(
        self,
        placement: List[int],
        active: Sequence[int],
        window_positions: set,
    ) -> None:
        """Move parked logical qubits out of the next window's subset.

        A logical qubit that is not active in the window but currently sits
        on one of the window's physical qubits is re-parked on the nearest
        free physical qubit outside the subset (deterministic tie-break by
        index).  Counting guarantees a spot exists: the device has at least
        as many positions outside the subset as there are parked qubits.
        """
        distances = shared_distance_matrix(self.coupling)
        active_set = set(active)
        occupied = {
            position
            for logical, position in enumerate(placement)
            if position >= 0 and logical not in active_set
        }
        for logical in range(len(placement)):
            position = placement[logical]
            if logical in active_set or position < 0:
                continue
            if position not in window_positions:
                continue
            candidates = [
                physical
                for physical in range(self.coupling.num_qubits)
                if physical not in window_positions and physical not in occupied
            ]
            if not candidates:
                raise SplittingError(
                    "no free physical qubit outside the window subset"
                )
            row = distances.get(position, {})
            best = min(
                candidates,
                key=lambda physical: (row.get(physical, self.coupling.num_qubits + 1), physical),
            )
            occupied.discard(position)
            occupied.add(best)
            placement[logical] = best

    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit) -> MappingResult:
        """Map *circuit* window by window; see the module docstring.

        Raises:
            SATMapperError: When a window has no valid mapping or the time
                budget runs out mid-stream.
            ValueError: When the circuit does not fit on the device.
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
                circuit,
                schedule,
                self.coupling,
                engine=self.name,
                strategy=self._strategy_name(),
                objective=0,
                optimal=True,
                runtime_seconds=time.monotonic() - start,
                statistics={"split_windows": 0,
                            "split_window_size": self.window_size},
                )

        windows = partition_windows(gates, self.window_size, self.qubit_cap)
        synthesizer = shared_synthesizer(self.coupling)
        placement: List[int] = [-1] * num_logical
        global_mappings: List[Tuple[int, ...]] = []
        window_objectives: List[int] = []
        window_sizes: List[int] = []
        stitch_swaps: List[int] = []
        solver_totals: Dict[str, float] = {}
        windows_optimal = 0
        boundary_before: Optional[Tuple[int, ...]] = None

        for window_index, window in enumerate(windows):
            remaining = self._remaining(start)
            if remaining is not None and remaining <= 0:
                raise SATMapperError(
                    "time budget exhausted before all windows were solved"
                )
            active = sorted({q for index in window for q in gates[index]})
            local_index = {logical: i for i, logical in enumerate(active)}
            sub_circuit = QuantumCircuit(
                len(active), f"{circuit.name}_w{window_index}"
            )
            for index in window:
                control, target = gates[index]
                sub_circuit.cx(local_index[control], local_index[target])
            window_result = self._window_mapper(remaining).map(sub_circuit)
            window_mappings = window_result.schedule.mappings
            window_positions = {
                position for mapping in window_mappings for position in mapping
            }
            window_objectives.append(int(window_result.objective or 0))
            windows_optimal += 1 if window_result.optimal else 0
            window_sizes.append(len(window))
            for key, value in window_result.statistics.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    solver_totals[key] = solver_totals.get(key, 0) + value

            # Evict parked qubits from the window's subset, then park any
            # logical qubit that has never been placed yet — every global
            # mapping must be total over the circuit's logical qubits.
            self._park_displaced(placement, active, window_positions)
            occupied = {
                position for position in placement if position >= 0
            } | window_positions
            for logical in range(num_logical):
                if placement[logical] < 0 and logical not in local_index:
                    free = next(
                        physical
                        for physical in range(num_physical)
                        if physical not in occupied
                    )
                    placement[logical] = free
                    occupied.add(free)

            for mapping in window_mappings:
                for logical in active:
                    placement[logical] = mapping[local_index[logical]]
                global_mappings.append(tuple(placement))

            boundary_after = global_mappings[len(global_mappings) - len(window)]
            if boundary_before is not None:
                stitch_swaps.append(
                    synthesizer.transition_cost(boundary_before, boundary_after)
                )
            boundary_before = global_mappings[-1]

        schedule = MappingSchedule(
            num_logical=num_logical,
            num_physical=num_physical,
            mappings=global_mappings,
            initial_mapping=global_mappings[0],
        )
        statistics: Dict[str, Any] = {
            "split_windows": len(windows),
            "split_window_size": self.window_size,
            "split_qubit_cap": self.qubit_cap,
            "window_objectives": window_objectives,
            "window_gates": window_sizes,
            "stitch_swaps": stitch_swaps,
            "stitch_swaps_total": sum(stitch_swaps),
            "windows_optimal": windows_optimal,
        }
        for key in (
            "solver_conflicts",
            "solver_iterations",
            "solver_propagations",
            "subsets_solved",
            "subsets_pruned",
            "family_reuses",
        ):
            if key in solver_totals:
                statistics[key] = solver_totals[key]
        if not synthesizer.optimal:
            statistics["routed_reconstruction"] = 1

        result = build_result(
            circuit,
            schedule,
            self.coupling,
            engine=self.name,
            strategy=self._strategy_name(),
            objective=None,
            optimal=False,
            runtime_seconds=time.monotonic() - start,
            num_permutation_spots=None,
            statistics=statistics,
            permutation_table=synthesizer,
        )
        # The realized added cost is the honest objective of a stitched
        # mapping: window objectives are exact only within their windows.
        result.objective = result.cost.added_cost
        return result

    # ------------------------------------------------------------------
    def _strategy_name(self) -> str:
        if self.strategy is None:
            return "all"
        return getattr(self.strategy, "name", str(self.strategy))

    def _remaining(self, start: float) -> Optional[float]:
        if self.time_limit is None:
            return None
        return self.time_limit - (time.monotonic() - start)


__all__ = [
    "DEFAULT_WINDOW_SIZE",
    "DEFAULT_QUBIT_CAP",
    "SplittingError",
    "partition_windows",
    "SplitSATMapper",
]

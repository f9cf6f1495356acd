"""Portfolio mapping: heuristic first, SAT seeded with the heuristic bound.

The classic portfolio trick for exact optimisation: run a cheap heuristic to
obtain *some* valid mapping, then hand its cost to the exact engine as an
initial upper bound.  The SAT optimiser asserts ``F <= bound`` before the
first solve (see :meth:`repro.sat.optimize.OptimizingSolver.minimize`), so
the objective descent starts at the heuristic incumbent instead of an
arbitrary first model — fewer solver iterations, same proven minimum.

The exact stage's objective-search strategy is selectable
(``optimizer="core" | "linear" | "binary"``, default ``"core"``).

When the bounded SAT search fails (the heuristic solution may not be
expressible under a restricted permutation strategy, or the budget runs
out), the heuristic result itself is returned, so :meth:`PortfolioMapper.map`
always yields a valid mapping that is at least as cheap as the heuristic's.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.result import MappingResult
from repro.exact.sat_mapper import SATMapper, SATMapperError
from repro.exact.strategies import PermutationStrategy
from repro.pipeline.registry import get_mapper, resolve_mapper_name
from repro.sat.optimize import DEFAULT_OPTIMIZER


class PortfolioMapper:
    """Heuristic-seeded exact mapper (registry name ``"portfolio"``).

    Args:
        coupling: Target architecture.
        strategy: Permutation-restriction strategy for the SAT stage.
        use_subsets: Restrict the SAT stage to connected physical-qubit
            subsets (Section 4.1).
        optimizer: Objective descent of the SAT stage: ``"core"`` (the
            default), ``"linear"`` or ``"binary"``.
        time_limit: Wall-clock budget of the SAT stage in seconds.
        conflict_limit: Per-solver-call conflict budget of the SAT stage.
        decompose_swaps: Emit SWAPs as their 7-gate decomposition (default).
        share_clauses: Forwarded to the SAT stage — cross-family clause
            sharing and skeleton reuse during subset sweeps (see
            :class:`~repro.exact.sat_mapper.SATMapper`).
        prune_families: Forwarded to the SAT stage — lower-bound family
            pruning during subset sweeps.
        heuristic: Registry name of the bound-providing heuristic engine
            (default ``"sabre"``).
        heuristic_options: Extra constructor options for the heuristic.

    Example:
        >>> from repro.arch import ibm_qx4
        >>> from repro.benchlib import paper_example_cnot_skeleton
        >>> result = PortfolioMapper(ibm_qx4()).map(paper_example_cnot_skeleton())
        >>> result.added_cost
        4
    """

    name = "portfolio"

    #: An externally known bound is always safe here: the SAT stage failing
    #: within the bound falls back to the heuristic result.
    accepts_external_bound = True

    def __init__(
        self,
        coupling: CouplingMap,
        strategy: Optional[PermutationStrategy] = None,
        use_subsets: bool = False,
        optimizer: str = DEFAULT_OPTIMIZER,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        decompose_swaps: bool = True,
        share_clauses: bool = True,
        prune_families: bool = True,
        heuristic: str = "sabre",
        heuristic_options: Optional[Dict[str, Any]] = None,
    ):
        self.coupling = coupling
        self.heuristic_name = resolve_mapper_name(heuristic)
        options = dict(heuristic_options or {})
        options.setdefault("decompose_swaps", decompose_swaps)
        self._heuristic = get_mapper(self.heuristic_name, coupling, **options)
        self._sat = SATMapper(
            coupling,
            strategy=strategy,
            use_subsets=use_subsets,
            optimizer=optimizer,
            time_limit=time_limit,
            conflict_limit=conflict_limit,
            decompose_swaps=decompose_swaps,
            share_clauses=share_clauses,
            prune_families=prune_families,
        )
        self.optimizer = self._sat.optimizer

    # ------------------------------------------------------------------
    def map(
        self, circuit: QuantumCircuit, upper_bound: Optional[int] = None
    ) -> MappingResult:
        """Map *circuit*: heuristic bound first, then bounded exact search.

        Args:
            circuit: The circuit to map.
            upper_bound: Externally known valid bound (e.g. from a
                :class:`~repro.pipeline.bounds.BoundProviderChain`); the SAT
                stage is seeded with the tighter of this and the heuristic's
                cost.

        The returned result carries portfolio bookkeeping in its
        ``statistics``: ``portfolio_bound`` (the seeded bound),
        ``portfolio_heuristic`` (its engine name), ``portfolio_source``
        (``"sat"`` when the exact stage produced the result, ``"heuristic"``
        when the heuristic was already provably minimal or the exact stage
        found nothing within the bound) and ``portfolio_external_bound`` when
        a caller-supplied bound tightened the seed.
        """
        start = time.monotonic()
        heuristic_result = self._heuristic.map(circuit)
        bound = heuristic_result.added_cost
        bookkeeping = {
            "portfolio_bound": bound,
            "portfolio_heuristic": self.heuristic_name,
            "portfolio_heuristic_runtime": heuristic_result.runtime_seconds,
            "portfolio_optimizer": self.optimizer,
        }
        if upper_bound is not None and upper_bound < bound:
            bound = upper_bound
            bookkeeping["portfolio_bound"] = bound
            bookkeeping["portfolio_external_bound"] = upper_bound

        if heuristic_result.added_cost == 0:
            # Zero added cost is globally minimal; no exact search needed.
            heuristic_result.statistics.update(bookkeeping, portfolio_source="heuristic")
            heuristic_result.optimal = True
            heuristic_result.engine = self.name
            heuristic_result.runtime_seconds = time.monotonic() - start
            return heuristic_result

        try:
            sat_result = self._sat.map(circuit, upper_bound=bound)
        except SATMapperError as error:
            # Nothing at or below the bound was found within the SAT stage's
            # strategy/subset restriction or budget — the heuristic solution
            # stands.
            heuristic_result.statistics.update(
                bookkeeping,
                portfolio_source="heuristic",
                portfolio_sat_error=str(error),
            )
            heuristic_result.engine = self.name
            heuristic_result.runtime_seconds = time.monotonic() - start
            return heuristic_result

        sat_result.statistics.update(bookkeeping, portfolio_source="sat")
        sat_result.engine = self.name
        sat_result.runtime_seconds = time.monotonic() - start
        return sat_result


__all__ = ["PortfolioMapper"]

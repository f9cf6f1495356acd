"""The paper's mapping method: symbolic formulation + reasoning engine.

:class:`SATMapper` builds the Boolean formulation of Section 3.2 (via
:mod:`repro.exact.encoding`), hands it to the SAT-based optimiser of
:mod:`repro.sat` and turns the minimal model into an architecture-compliant
circuit.  The performance improvements of Section 4 are available through

* ``use_subsets=True`` — map onto every connected subset of ``n`` physical
  qubits separately and keep the best result (Section 4.1),
* ``strategy=...`` — restrict the gates before which the mapping may change
  (Section 4.2).

The subset sweep is organised around five reuse layers:

* **DP seeds** — every family whose mapping states fit the DP engine's limit
  starts at DP's exact schedule on its sub-coupling
  (:func:`repro.exact.dp_mapper.dp_schedule`, re-costed by the family's
  encoding), so its solve is one refutation of the bound just below it.
  DP is the sweep's only incumbent source: a family beyond the limit
  (only one of at least 8 physical qubits can be) starts cold.  DP
  supplies incumbents and phases only, never a bound: every decision
  rests on the solver's own UNSAT answer or on a proven lower bound.

* **Subset families** — two subsets whose induced sub-couplings re-index to
  the same directed edge set produce *identical* encodings, so they form one
  family that is encoded and solved once; the other members mirror the
  outcome (translated to their own device indices) without any solver call.
  A family is one object from planning to the end of the sweep: its plan,
  its live solve, its latest decision and its harvest (proven bound,
  shareable clauses, best schedule).  Every member, the representative
  included, passes through one loop body with one budget check and one
  incumbent update.
* **Solve sessions** — each family keeps one persistent
  :class:`~repro.sat.session.SolveSession`; objective bounds (the heuristic
  seed and the cross-subset incumbent) are *assumed* on the live solver, so
  learned clauses survive both the objective descent and any re-solve of the
  family under a tightened incumbent.
* **Family ordering and pruning** — families are solved in ascending order
  of a provable structural lower bound
  (:func:`~repro.exact.sweep.structural_lower_bound`, densest sub-couplings
  first), with ties keeping the canonical keys' first-appearance order, so
  every run walks the same order.  Once an incumbent exists, a family whose
  proven lower bound — structural, or transferred from an already-decided
  family it embeds into (fewer edges can never map more cheaply) — meets
  the incumbent is *pruned without a single solver call*, and the skip is
  mirrored to all its members.
* **Cross-family clause sharing** — clauses learned by one family's solver
  before any committed bound are consequences of that family's formula
  alone; restricted to the shared encoding layers and translated through
  :func:`~repro.exact.sweep.encoding_variable_remap` along an (undirected)
  edge embedding, they are implied by every sparser family's formula too,
  and are injected into those sessions before their first solve, through
  the same import routine as the clauses stored by past jobs.  Set the
  environment variable ``REPRO_CHECK_IMPORTS`` to verify every imported
  clause by refutation (slow; used by the property tests); it is read once
  per :meth:`SATMapper.map` call.

The sweep is sequential by design: pruning and clause sharing both draw
on the families solved before, so a family solved without
that prefix pays the full cost of an unbounded search.  Parallelism belongs
one level up: across circuits
(:meth:`repro.pipeline.pipeline.MappingPipeline.map_many`) and across the
worker processes of the serving fleet.  Per-architecture artefacts
(permutation tables, connected subsets) come from the process-wide caches in
:mod:`repro.arch.cache`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import dp_schedule
from repro.exact.encoding import MappingEncoding, build_encoding
from repro.exact.reconstruction import build_result, default_schedule
from repro.exact.result import MappingResult, MappingSchedule
from repro.exact.strategies import AllGatesStrategy, PermutationStrategy
from repro.exact.sweep import (
    artifact_key,
    clause_is_implied,
    clauses_to_template,
    directed_edges_key,
    encoding_variable_remap,
    find_edge_embedding,
    structural_lower_bound,
    template_clause_remap,
)
from repro.arch.cache import (
    shared_connected_subsets,
    shared_permutation_table,
    shared_synthesizer,
)
from repro.arch.permutations import MAX_MAPPING_STATES, invert_permutation
from repro.sat.optimize import (
    DEFAULT_OPTIMIZER,
    OptimizationResult,
    OptimizingSolver,
    resolve_optimizer_name,
)
from repro.sat.session import SolveSession
from repro.sat.solver import solver_backend_provenance

#: Longest learned clause exported across subset families (short clauses
#: prune the most per imported literal; long ones mostly cost propagation).
SHARE_MAX_CLAUSE_SIZE = 8


class SATMapperError(RuntimeError):
    """Raised when no valid mapping could be determined."""

    @classmethod
    def no_solution(cls, budget_exhausted: bool) -> "SATMapperError":
        """The error for a search that ended without any solution."""
        if budget_exhausted:
            return cls("time budget exhausted before a first solution was found")
        return cls(
            "no valid mapping found (all subsets unsatisfiable within the "
            "objective bound, or the search was inconclusive)"
        )


@dataclass
class SubsetOutcome:
    """Result of solving one physical-qubit subset instance.

    Attributes:
        subset: Device indices of the physical qubits of this instance.
        status: Optimiser status (``"optimal"``, ``"satisfiable"``,
            ``"unsat"``, ``"unknown"``).
        objective: Best objective value found (``None`` when unsatisfiable).
        mappings: Per-CNOT logical-to-physical mappings, translated back to
            device indices (``None`` when unsatisfiable).
        iterations: Solver calls spent on this instance.
        conflicts: Solver conflicts spent on this instance.
        variables: CNF variables of the instance encoding.
        clauses: CNF clauses of the instance encoding.
        reused: True when the outcome was mirrored from another subset of
            the same family instead of being solved.
        pruned: True when the subset's family was skipped without solving
            because its proven lower bound met the sweep incumbent
            (``status`` is then ``"pruned"``, which reads as
            unsatisfiable-within-bound).
        proven_lower_bound: Lower bound on the family's objective that
            justified the prune (``None`` for solved/mirrored outcomes).
        statistics: Incremental-session counters of the solve (empty for
            mirrored outcomes).
        core_labels: Human-readable labels of the final UNSAT core of the
            optimiser run, when its strategy recorded one (empty for
            mirrored outcomes and strategies without assumption probes).
    """

    subset: Tuple[int, ...]
    status: str
    objective: Optional[int] = None
    mappings: Optional[List[Tuple[int, ...]]] = None
    iterations: int = 0
    conflicts: int = 0
    variables: int = 0
    clauses: int = 0
    reused: bool = False
    pruned: bool = False
    proven_lower_bound: Optional[float] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    core_labels: Tuple[str, ...] = ()

    @property
    def is_satisfiable(self) -> bool:
        """True when the instance yielded at least one model."""
        return self.status in ("optimal", "satisfiable")

    @property
    def is_optimal(self) -> bool:
        """True when the instance was solved to (bounded) optimality."""
        return self.status == "optimal"


def _translate(
    local_mappings: Sequence[Tuple[int, ...]], subset: Sequence[int]
) -> List[Tuple[int, ...]]:
    """Subset-relative physical indices back to device indices."""
    return [
        tuple(subset[physical] for physical in mapping)
        for mapping in local_mappings
    ]


def _proven_lower_bound(
    outcome: SubsetOutcome, bound_used: Optional[int]
) -> Optional[float]:
    """Lower bound on the family's true optimum proven by one decision.

    * ``optimal`` — the optimum itself is known exactly.
    * ``unsat`` under bound ``b`` — nothing costs at most ``b``, so the
      optimum is at least ``b + 1`` (infinite when no bound was active:
      the instance is unsatisfiable outright).
    * core-guided runs additionally prove ``core_lower_bound`` from
      disjoint UNSAT cores, valid even when the descent did not finish
      (the core strategy never commits bounds, so its cores are
      consequences of the formula alone).
    """
    bound: Optional[float] = None
    if outcome.status == "optimal":
        bound = outcome.objective
    elif outcome.status == "unsat":
        bound = float("inf") if bound_used is None else bound_used + 1
    core_bound = outcome.statistics.get("core_lower_bound", 0)
    if core_bound and (bound is None or core_bound > bound):
        bound = core_bound
    return bound


@dataclass
class _SharedVars:
    """Slim view of an encoding's shareable variable layers.

    Kept by a family after its heavyweight encoding (the CNF clause list)
    has been released — everything
    :func:`repro.exact.sweep.encoding_variable_remap` needs from a clause
    *source*.
    """

    skeleton: Optional[object]
    x_var_limit: int
    spot_var_start: int
    spot_var_end: int
    x_vars: List[Dict[Tuple[int, int], int]]
    eq_vars: Dict[int, Dict[Tuple[int, int, int], int]]
    y_vars: Dict[int, Dict[Tuple[int, ...], int]]

    @classmethod
    def of(cls, encoding: MappingEncoding) -> "_SharedVars":
        return cls(
            skeleton=encoding.skeleton,
            x_var_limit=encoding.x_var_limit,
            spot_var_start=encoding.spot_var_start,
            spot_var_end=encoding.spot_var_end,
            x_vars=encoding.x_vars,
            eq_vars=encoding.eq_vars,
            y_vars=encoding.y_vars,
        )


@dataclass(eq=False)
class _Family:
    """One subset family of a sweep, from planning to the end of the sweep.

    Two subsets whose sub-couplings re-index to the same directed edge set
    have identical encodings, so the family is encoded and solved once, on
    subset-relative ("local") physical indices, and each member translates
    the outcome to its own device indices.

    Attributes:
        indices: Subset indices of the family's members, ascending (the
            first is the representative that is actually solved).
        key: Canonical coupling key of the induced sub-coupling.
        sub_coupling: The representative's re-indexed sub-coupling.
        heuristic_lower_bound: Provable structural lower bound on the
            family's added cost (the primary ordering key, see
            :func:`repro.exact.sweep.structural_lower_bound`).
        connected: Whether the sub-coupling is connected (disconnected
            families are recorded as unsatisfiable without solving).
        encoding, optimizer, session: The live solve; dropped once the
            family is conclusively decided (see :meth:`release_solver`).
        status: The latest decision: ``"pruned"``, or an optimiser status
            (``None`` before the family is first visited).
        bound_used: The sweep bound that decision was made under.
        lower_bound: The tightest lower bound proven on the family's cost.
        exported: Learned clauses shareable with sparser families.
        shared_vars: The variable layers those clauses are written in,
            kept after the encoding is released.
        schedule: The cheapest local schedule found, costing *objective*.
    """

    indices: List[int]
    key: Tuple
    sub_coupling: CouplingMap
    heuristic_lower_bound: int
    connected: bool
    encoding: Optional[MappingEncoding] = None
    optimizer: Optional[OptimizingSolver] = None
    session: Optional[SolveSession] = None
    status: Optional[str] = None
    bound_used: Optional[int] = None
    lower_bound: Optional[float] = None
    exported: List[Tuple[int, ...]] = field(default_factory=list)
    shared_vars: Optional[_SharedVars] = None
    schedule: Optional[List[Tuple[int, ...]]] = None
    objective: Optional[int] = None

    def mirrored(
        self, subset: Tuple[int, ...], bound: Optional[int]
    ) -> Optional[SubsetOutcome]:
        """The outcome for *subset* when the family is already decided.

        Returns ``None`` before the first visit and while the latest
        outcome is inconclusive (``"satisfiable"``/``"unknown"`` from an
        exhausted budget): the family must then be solved on its live
        session.  Bounds only tighten over a sweep, so a decided outcome
        stays valid: an optimum above the current bound (and any earlier
        ``"unsat"``) reads as unsatisfiable-within-bound.
        """
        if self.status == "pruned":
            return SubsetOutcome(
                subset=subset,
                status="pruned",
                pruned=True,
                proven_lower_bound=self.lower_bound,
            )
        if self.status == "optimal" and (bound is None or self.objective <= bound):
            return SubsetOutcome(
                subset=subset,
                status="optimal",
                objective=self.objective,
                mappings=_translate(self.schedule, subset),
                reused=True,
            )
        if self.status in ("optimal", "unsat"):
            return SubsetOutcome(subset=subset, status="unsat", reused=True)
        return None

    def release_solver(self) -> None:
        """Drop the live solver once the family is conclusively decided.

        A sweep can cover many families; keeping every CDCL solver (watch
        lists, learned clauses) alive until the end would grow memory with
        the family count, while a conclusive (``optimal``/``unsat``) family
        only ever serves mirrored outcomes from its harvest.
        """
        self.encoding = None
        self.optimizer = None
        self.session = None


class _Sweep:
    """The cross-family state of one :meth:`SATMapper.map` call.

    Holds the visited families in first-visited order (pruned ones
    included), the embedding cache, the incumbent and the bound it implies,
    the sweep counters and the stored-artifact rows.

    With an *artifacts* cache (see
    :class:`repro.service.store.ArtifactCache` — duck-typed here as
    anything with ``load(key)``/``save(key, payload)`` that never raise:
    a failing store is a miss or a dropped row), the sweep
    additionally consults **persisted solve artifacts** from structurally
    identical past jobs: learned clauses (:meth:`import_clauses`) and
    proven lower bounds (:meth:`lower_bounds`, directed-orientation
    matched), and writes this sweep's harvest back via
    :meth:`save_artifacts`.  Stored clauses are shape-checked against the
    live encoding; a mismatched row degrades to bound-only seeding with a
    note in :attr:`artifact_notes`, never to an error.
    """

    def __init__(
        self,
        gates: Sequence[Tuple[int, int]],
        num_logical: int,
        spots: Sequence[int],
        upper_bound: Optional[int],
        artifacts=None,
    ) -> None:
        self.gates = [tuple(gate) for gate in gates]
        self.num_logical = num_logical
        self.spots = list(spots)
        self.artifacts = artifacts
        # Read once: every clause import (and every closure) of this sweep
        # is refutation-checked, or none is.
        self.check_imports = bool(os.environ.get("REPRO_CHECK_IMPORTS"))
        self.families: List[_Family] = []
        self._embeddings: Dict[Tuple, Optional[Tuple[int, ...]]] = {}
        self._artifact_rows: Dict[str, Optional[Dict]] = {}
        self.outcomes: List[SubsetOutcome] = []
        self.best: Optional[SubsetOutcome] = None
        self.bound = upper_bound
        self.found_zero = False
        self.budget_exhausted = False
        self.counters = dict.fromkeys(
            (
                "families_pruned",
                "families_closed",
                "families_dp_seeded",
                "clauses_exported",
                "clauses_imported",
                "artifact_clauses_imported",
                "artifact_bounds_used",
                "artifact_hits",
                "artifact_misses",
            ),
            0,
        )
        self.artifact_notes: List[str] = []

    # ------------------------------------------------------------------
    def record(self, outcome: SubsetOutcome) -> None:
        """Add one member's outcome and update the incumbent.

        A zero-added-cost mapping cannot be beaten by any other subset, so
        it ends the sweep; any other incumbent tightens the bound — later
        instances only interest us when strictly cheaper (and never above a
        seeded bound).
        """
        self.outcomes.append(outcome)
        if not outcome.is_satisfiable:
            return
        if self.best is None or outcome.objective < self.best.objective:
            self.best = outcome
        if self.best.objective == 0:
            self.found_zero = True
            return
        incumbent_bound = self.best.objective - 1
        self.bound = (
            incumbent_bound if self.bound is None
            else min(self.bound, incumbent_bound)
        )

    def _embedding(
        self, inner: _Family, outer: _Family, directed: bool
    ) -> Optional[Tuple[int, ...]]:
        cache_key = (inner.key, outer.key, directed)
        if cache_key not in self._embeddings:
            self._embeddings[cache_key] = find_edge_embedding(
                inner.sub_coupling, outer.sub_coupling, directed=directed
            )
        return self._embeddings[cache_key]

    # ------------------------------------------------------------------
    def lower_bounds(self, family: _Family) -> Tuple[float, float]:
        """The family's proven lower bound, and the in-sweep part of it.

        Returns ``(proven, in_sweep)``.  *in_sweep* combines the family's
        own structural bound with bounds transferred from visited families
        it embeds into: when every edge of this family maps into family *B*
        under some vertex relabelling, every schedule here is also valid on
        *B* at no higher cost, so this family's optimum is at least *B*'s
        proven bound.  *proven* is the maximum of it and the stored bound
        for this exact edge orientation.  Only bound entries proven under
        *exactly* this family's directed edge set apply — same-key families
        with another CNOT orientation pay different reversal costs.  A
        decision that holds for *proven* but not for *in_sweep* is credited
        to the store.
        """
        in_sweep: float = family.heuristic_lower_bound
        for source in self.families:
            if source.lower_bound is None or source.lower_bound <= in_sweep:
                continue
            # Bound transfer needs the cost-preserving (directed) relation.
            if self._embedding(family, source, directed=True) is not None:
                in_sweep = source.lower_bound
        _, payload = self._artifact_for(family)
        stored = (
            payload["bounds"].get(directed_edges_key(family.sub_coupling))
            if payload is not None else None
        )
        if stored is not None and float(stored) > in_sweep:
            return float(stored), in_sweep
        return in_sweep, in_sweep

    # ------------------------------------------------------------------
    def import_clauses(self, family: _Family) -> None:
        """Inject learned clauses into a family about to be solved.

        Two sources, in this order: the clauses of every visited
        edge-superset family (where they were learned), remapped through
        the inverse of the embedding over the shared variable roles; then the family's stored clauses from past jobs,
        in template numbering, which skeleton-key equality turns into a
        constant shift (:func:`repro.exact.sweep.template_clause_remap`).
        A stored row whose variable-block shape disagrees with the live
        encoding (a corrupt or foreign row) contributes no clauses — its
        bounds still apply, so seeding degrades to bound-only with a note.
        """
        encoding = family.encoding
        assert encoding is not None and family.session is not None
        for source in self.families:
            if not source.exported:
                continue
            # Clause transfer only needs hard-constraint satisfiability to
            # carry over, so the looser undirected relation applies.
            sigma = self._embedding(family, source, directed=False)
            if sigma is None:
                continue
            remap = encoding_variable_remap(
                source.shared_vars, encoding, invert_permutation(sigma)
            )
            self.counters["clauses_imported"] += self._import(
                family, source.exported, remap, "imported"
            )
        _, payload = self._artifact_for(family)
        if payload is None or not payload["clauses"]:
            return
        spot_var_count = encoding.spot_var_end - encoding.spot_var_start
        if (
            payload["x_var_limit"] != encoding.x_var_limit
            or payload["spot_var_count"] != spot_var_count
        ):
            self.artifact_notes.append(
                f"artifact row has variable blocks "
                f"({payload['x_var_limit']}, {payload['spot_var_count']}) "
                f"but the live encoding has ({encoding.x_var_limit}, "
                f"{spot_var_count}); clauses dropped, bound-only seeding"
            )
            return
        remap = template_clause_remap(
            payload["x_var_limit"], payload["spot_var_count"], encoding
        )
        clauses = [tuple(clause) for clause in payload["clauses"]]
        self.counters["artifact_clauses_imported"] += self._import(
            family, clauses, remap, "artifact"
        )

    def _import(
        self,
        family: _Family,
        clauses: Sequence[Tuple[int, ...]],
        remap: Dict[int, int],
        origin: str,
    ) -> int:
        """Import *clauses* through *remap*; under ``REPRO_CHECK_IMPORTS``
        first verify, by refutation, that each fully mapped clause is
        implied by the family's formula."""
        if self.check_imports:
            for clause in clauses:
                mapped = [
                    remap[abs(l)] if l > 0 else -remap[abs(l)]
                    for l in clause
                    if abs(l) in remap
                ]
                if len(mapped) != len(clause):
                    continue
                if not clause_is_implied(family.encoding.cnf, mapped):
                    raise AssertionError(
                        f"{origin} clause {clause} (mapped {mapped}) is not "
                        f"implied by the target family's formula"
                    )
        return family.session.import_clauses(clauses, remap=remap)

    # ------------------------------------------------------------------
    # Persisted artifacts (cross-job warm starts)
    # ------------------------------------------------------------------
    def _artifact_for(self, family: _Family) -> Tuple[Optional[str], Optional[Dict]]:
        """The (cached) artifact row for one family, with hit/miss counting."""
        if self.artifacts is None:
            return None, None
        key = artifact_key(
            self.gates, self.num_logical, family.sub_coupling, self.spots
        )
        if key not in self._artifact_rows:
            payload = self.artifacts.load(key)
            self._artifact_rows[key] = payload
            self.counters[
                "artifact_misses" if payload is None else "artifact_hits"
            ] += 1
        return key, self._artifact_rows[key]

    def save_artifacts(self) -> int:
        """Persist every visited family's harvest; returns rows offered.

        Per family: exported learned clauses re-based to template numbering,
        and the proven lower bound keyed by the directed edge set it was
        proven under.  Families with nothing useful (no clauses, no
        positive bound) write nothing.  The cache drops a row it fails to
        write — persisting is best-effort.
        """
        written = 0
        for family in self.families:
            key, _ = self._artifact_for(family)
            if key is None:
                continue
            clauses: List[List[int]] = []
            x_var_limit = (
                len(self.gates) * self.num_logical
                * family.sub_coupling.num_qubits
            )
            spot_var_count = 0
            shared = family.shared_vars
            if family.exported:
                clauses = clauses_to_template(
                    family.exported, shared.x_var_limit, shared.spot_var_start
                )
                x_var_limit = shared.x_var_limit
                spot_var_count = shared.spot_var_end - shared.spot_var_start
            bounds: Dict[str, float] = {}
            if family.lower_bound is not None and family.lower_bound > 0:
                bounds[directed_edges_key(family.sub_coupling)] = (
                    family.lower_bound
                )
            if not clauses and not bounds:
                continue
            self.artifacts.save(key, {
                "version": 1,
                "x_var_limit": x_var_limit,
                "spot_var_count": spot_var_count,
                "clauses": clauses,
                "bounds": bounds,
            })
            written += 1
        return written


class SATMapper:
    """Exact mapper using the paper's symbolic formulation and a SAT optimiser.

    Args:
        coupling: Target architecture.
        strategy: Permutation-restriction strategy (Section 4.2); defaults to
            permutations before every gate (the minimal formulation).
        use_subsets: Solve one instance per connected subset of ``n`` physical
            qubits instead of one instance over all ``m`` (Section 4.1).
        optimizer: Objective descent: ``"core"`` (the default) or
            ``"linear"`` (see :mod:`repro.sat.optimize`); validated at
            construction time.
        time_limit: Optional wall-clock budget in seconds for the whole
            mapping call; when exhausted the best solution found so far is
            returned (not necessarily minimal) and the remaining subset
            instances are skipped.
        conflict_limit: Optional per-solver-call conflict budget.

    Example:
        >>> from repro.arch import ibm_qx4
        >>> from repro.circuit import QuantumCircuit
        >>> circuit = QuantumCircuit(3)
        >>> circuit.cx(0, 1).cx(1, 2)
        >>> result = SATMapper(ibm_qx4()).map(circuit)
        >>> result.added_cost
        0
    """

    def __init__(
        self,
        coupling: CouplingMap,
        strategy: Optional[PermutationStrategy] = None,
        use_subsets: bool = False,
        optimizer: str = DEFAULT_OPTIMIZER,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
    ):
        self.coupling = coupling
        self.strategy = strategy if strategy is not None else AllGatesStrategy()
        self.use_subsets = use_subsets
        # Resolve (and thereby validate) the strategy name up front: a typo
        # should fail at construction, not after minutes of encoding work.
        self.optimizer = resolve_optimizer_name(optimizer)
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        # Optional cooperative-cancellation token (see bind_control):
        # every solver this mapper creates registers itself on it, so the
        # owner can interrupt a running map() from another thread.
        self.control = None

    def bind_control(self, control) -> None:
        """Attach a :class:`~repro.sat.control.SolveControl` token.

        Every CDCL solver created by later :meth:`map` calls registers on
        *control*; ``control.cancel()`` then interrupts all of them at their
        next conflict boundary, and the sweep loop stops launching further
        family solves.  Cancellation behaves like
        an exhausted time budget: the best solution found so far (if any)
        is returned as non-optimal, otherwise :class:`SATMapperError` is
        raised.
        """
        self.control = control

    def _cancelled(self) -> bool:
        return self.control is not None and self.control.cancelled

    # ------------------------------------------------------------------
    # Instance preparation
    # ------------------------------------------------------------------
    def accepts_seeds_for(self, num_logical: int) -> bool:
        """Whether an external upper bound is safe for a circuit of
        *num_logical* qubits.

        A bound taken from *any* valid mapping (a heuristic, an earlier
        result) is an upper bound on the **true** minimum.  Asserting it is
        only safe when this mapper's search space contains the true minimum:
        the strategy guarantees minimality and the sweep is a single family,
        the whole device — without subsets, or with subsets when the circuit
        uses every physical qubit (``n == m``).  Restricted strategies and
        proper subset sweeps may have a higher restricted minimum, where an
        external bound could turn a solvable instance unsatisfiable.

        Solve artifacts need no such check: they are keyed by the encoding
        skeleton of each subset family, so they apply within the family they
        were harvested from, restricted search space or not.
        """
        return self.strategy.guarantees_minimality and (
            not self.use_subsets or num_logical >= self.coupling.num_qubits
        )

    def candidate_subsets(self, num_logical: int) -> List[Tuple[int, ...]]:
        """Physical-qubit subsets to try (Section 4.1)."""
        num_physical = self.coupling.num_qubits
        if not self.use_subsets or num_logical >= num_physical:
            return [tuple(range(num_physical))]
        return shared_connected_subsets(self.coupling, num_logical)

    def plan_families(
        self,
        subsets: Sequence[Tuple[int, ...]],
        gates: Sequence[Tuple[int, int]],
    ) -> List[_Family]:
        """Group subsets into families and fix the sweep's solving order.

        Two subsets fall into one family when their re-indexed
        sub-couplings have the same canonical key — their encodings are then
        identical, so one solve covers the whole family.  Each family's
        member indices are ascending, so its representative (the first
        member) is the first of its subsets in the enumeration.

        Families are sorted by ``(heuristic lower bound, canonical coupling
        key)`` — a *stable* sort, so the order is fully determined by the
        architecture and the circuit.  Densest sub-couplings (lowest
        structural bound) come first: they tend to hold the cheapest
        mappings, which establishes a tight incumbent early and lets the
        sparse tail be pruned without solving.  A fixed order makes the
        pruning, and therefore every benchmark counter, reproducible.
        """
        families: Dict[Tuple, _Family] = {}
        for index, subset in enumerate(subsets):
            sub_coupling = self.coupling.subgraph(subset)
            key = sub_coupling.canonical_key()
            family = families.get(key)
            if family is not None:
                family.indices.append(index)
                continue
            connected = sub_coupling.is_connected()
            families[key] = _Family(
                indices=[index],
                key=key,
                sub_coupling=sub_coupling,
                heuristic_lower_bound=(
                    structural_lower_bound(sub_coupling, gates)
                    if connected else 0
                ),
                connected=connected,
            )
        # Stable sort: ties keep the canonical keys' first-appearance order
        # over the (sorted) subset enumeration, which is itself a pure
        # function of the architecture — the overall order is reproducible
        # across runs and processes.
        return sorted(
            families.values(), key=lambda family: family.heuristic_lower_bound
        )

    def cnot_instance(
        self, circuit: QuantumCircuit
    ) -> Tuple[List[Tuple[int, int]], List[int]]:
        """The CNOT pair sequence of *circuit* and its permutation spots."""
        cnot_gates = circuit.cnot_gates()
        gates = [(gate.control, gate.target) for gate in cnot_gates]
        spots = self.strategy.spots(cnot_gates, self.coupling) if gates else []
        return gates, spots

    def _remaining_time(self, start: float) -> Optional[float]:
        """Seconds left of the overall budget; <= 0 means the budget is spent."""
        if self.time_limit is None:
            return None
        return self.time_limit - (time.monotonic() - start)

    # ------------------------------------------------------------------
    # Per-family solving
    # ------------------------------------------------------------------
    def _open_family(
        self,
        family: _Family,
        gates: Sequence[Tuple[int, int]],
        num_logical: int,
        spots: Sequence[int],
    ) -> None:
        """Encode one subset family and open its persistent session."""
        table = shared_permutation_table(family.sub_coupling)
        family.encoding = build_encoding(
            list(gates), num_logical, family.sub_coupling,
            permutation_spots=list(spots),
            permutation_table=table,
        )
        family.shared_vars = _SharedVars.of(family.encoding)
        family.optimizer = OptimizingSolver(
            family.encoding.cnf, family.encoding.objective
        )
        family.session = family.optimizer.make_session()
        if self.control is not None:
            self.control.register(family.session.solver)

    def _solve_family(
        self,
        family: _Family,
        subset: Tuple[int, ...],
        time_limit: Optional[float],
        upper_bound: Optional[int],
        incumbent: Optional[Tuple[List[Tuple[int, ...]], int]] = None,
    ) -> SubsetOutcome:
        """Run the optimiser on the family's live session and record the outcome.

        *incumbent* is an optional ``(local mappings, objective)`` warm
        start, already validated by :meth:`_dp_seed`: the schedule is
        translated into an ``x``-variable assignment that seeds the
        solver's phases and counts as the first feasible solution.

        A model found here is always the family's cheapest so far: a family
        is solved again only after an inconclusive outcome, and by then the
        sweep bound lies below every schedule the family has produced.
        """
        assert family.optimizer is not None and family.encoding is not None
        initial_model: Optional[Dict[int, bool]] = None
        initial_objective: Optional[int] = None
        if incumbent is not None:
            initial_model = family.encoding.assignment_from_schedule(incumbent[0])
            initial_objective = incumbent[1]
        outcome: OptimizationResult = family.optimizer.minimize(
            strategy=self.optimizer,
            time_limit=time_limit,
            conflict_limit=self.conflict_limit,
            upper_bound=upper_bound,
            session=family.session,
            initial_model=initial_model,
            initial_objective=initial_objective,
        )
        family.status = outcome.status
        family.bound_used = upper_bound
        mappings = None
        if outcome.is_satisfiable:
            family.schedule = family.encoding.extract_schedule(outcome.model)
            family.objective = outcome.objective
            mappings = _translate(family.schedule, subset)
        return SubsetOutcome(
            subset=subset,
            status=outcome.status,
            objective=outcome.objective if outcome.is_satisfiable else None,
            mappings=mappings,
            iterations=outcome.iterations,
            conflicts=outcome.conflicts,
            variables=family.encoding.num_variables,
            clauses=family.encoding.num_clauses,
            statistics=dict(outcome.statistics),
            core_labels=outcome.core_labels,
        )

    def _dp_seed(
        self, sweep: _Sweep, family: _Family
    ) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """DP's exact schedule for *family*, re-costed by its encoding.

        Runs :func:`repro.exact.dp_mapper.dp_schedule` on the family's
        sub-coupling with the sweep's gates and spots.  Returns ``None``
        when DP finds no schedule, or when the encoding rejects the schedule
        or evaluates it to another cost than DP's
        (:meth:`MappingEncoding.schedule_objective`): only a real model at
        its stated cost may serve as an incumbent.  This is the one check a
        seed gets; closure and the solve take it as a model at that cost.
        """
        assert family.encoding is not None
        try:
            mappings, objective, _ = dp_schedule(
                family.sub_coupling, sweep.num_logical, sweep.gates, sweep.spots
            )
            if family.encoding.schedule_objective(mappings) != objective:
                return None
        except ValueError:  # EncodingError included
            return None
        return list(mappings), objective

    def _family_seed(
        self, sweep: _Sweep, family: _Family
    ) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """The family's first incumbent ``(local mappings, objective)``, or
        ``None`` when the family starts cold.

        Where the family's mapping states fit the DP engine's limit
        (:data:`~repro.arch.permutations.MAX_MAPPING_STATES`), the
        incumbent is DP's exact schedule (:meth:`_dp_seed`); beyond it the
        family starts cold.  A schedule above the sweep bound cannot serve
        as an incumbent, but it is still a valid model of the hard
        constraints — its x-assignment seeds the solver's phases (a pure
        search hint), steering the bounded search into known-feasible
        territory instead of a cold start.

        DP supplies this incumbent and these phases only, never a lower
        bound: the family is still decided by the solver's own refutation
        or by a proven lower bound.
        """
        states = math.perm(family.sub_coupling.num_qubits, sweep.num_logical)
        if states > MAX_MAPPING_STATES:
            return None
        seed = self._dp_seed(sweep, family)
        if seed is None:
            return None
        if sweep.bound is not None and seed[1] > sweep.bound:
            family.session.seed_phases(
                family.encoding.assignment_from_schedule(seed[0])
            )
            return None
        sweep.counters["families_dp_seeded"] += 1
        return seed

    def _close_family(
        self,
        sweep: _Sweep,
        family: _Family,
        subset: Tuple[int, ...],
        seed: Tuple[List[Tuple[int, ...]], int],
        time_limit: Optional[float],
    ) -> Optional[SubsetOutcome]:
        """Record *seed* as the family's optimum without a solver call.

        Applies when the family's proven lower bound is at least the
        seed's cost.  The seed comes from :meth:`_family_seed`, so it lies
        within the sweep bound and :meth:`_dp_seed` has checked that it is
        a model at that cost.  Returns ``None`` otherwise; the caller then
        solves as usual.

        With ``REPRO_CHECK_IMPORTS`` set, a closure is still checked: the
        family imports its learned clauses (so they are checked too), the
        refute-first probe runs with the seed as incumbent, and a model
        cheaper than the seed (a stored bound that was not a proof) raises
        :class:`AssertionError`.  The probe's work is reported in the
        outcome's counters.
        """
        assert family.encoding is not None
        local_mappings, objective = seed
        bound = sweep.bound
        proven, in_sweep = sweep.lower_bounds(family)
        if proven < objective:
            return None
        if in_sweep < objective:
            # Only the persisted bound closes this family.
            sweep.counters["artifact_bounds_used"] += 1
        sweep.counters["families_closed"] += 1
        outcome = SubsetOutcome(
            subset=subset,
            status="optimal",
            objective=objective,
            mappings=_translate(local_mappings, subset),
            variables=family.encoding.num_variables,
            clauses=family.encoding.num_clauses,
        )
        if sweep.check_imports:
            sweep.import_clauses(family)
            probe = self._solve_family(
                family, subset, time_limit, bound, incumbent=seed
            )
            if probe.is_satisfiable and probe.objective < objective:
                raise AssertionError(
                    f"family closed at cost {objective} on a proven lower "
                    f"bound of {proven}, but the solver found cost "
                    f"{probe.objective}"
                )
            outcome.iterations = probe.iterations
            outcome.conflicts = probe.conflicts
            outcome.statistics = dict(probe.statistics)
        family.status = "optimal"
        family.bound_used = bound
        family.schedule = list(local_mappings)
        family.objective = objective
        return outcome

    def _visit_family(
        self,
        sweep: _Sweep,
        family: _Family,
        subset: Tuple[int, ...],
        time_limit: Optional[float],
    ) -> SubsetOutcome:
        """Decide *family* for one member that cannot be mirrored.

        On the first visit the family is pruned, closed on its seed, or has
        clauses imported and is solved; on a later visit (an inconclusive
        outcome, the bound tightened since) it is re-solved on its live
        session.  A solved family's harvest follows: shareable learned
        clauses and the proven lower bound are collected while the session
        is alive, and a conclusive (``optimal``/``unsat``) family then drops
        its solver.
        """
        bound = sweep.bound
        if family.status is not None:
            outcome = self._solve_family(family, subset, time_limit, bound)
        else:
            # Registered before its decision: until the harvest below it
            # holds no bound, schedule or clauses, so it lends nothing to
            # its own solve.
            sweep.families.append(family)
            if bound is not None:
                proven, in_sweep = sweep.lower_bounds(family)
                if proven > bound:
                    if in_sweep <= bound:
                        # Only the persisted bound prunes this family — the
                        # in-sweep embedding bound alone would not have.
                        sweep.counters["artifact_bounds_used"] += 1
                    # The family provably holds nothing at most `bound`:
                    # skip it — and all its members — without solving.  The
                    # bound may serve as an embedding source for later
                    # (sparser) families.
                    sweep.counters["families_pruned"] += 1
                    family.status = "pruned"
                    family.lower_bound = proven
                    return family.mirrored(subset, bound)
            self._open_family(family, sweep.gates, sweep.num_logical, sweep.spots)
            seed = self._family_seed(sweep, family)
            outcome = (
                self._close_family(sweep, family, subset, seed, time_limit)
                if seed is not None else None
            )
            if outcome is None:
                sweep.import_clauses(family)
                outcome = self._solve_family(
                    family, subset, time_limit, bound, incumbent=seed
                )
        # export_learned is cumulative: the list replaces the earlier one,
        # and only its growth counts as newly exported.
        exported = family.session.export_learned(
            max_size=SHARE_MAX_CLAUSE_SIZE,
            var_ok=family.encoding.is_shared_variable,
        )
        if exported:
            sweep.counters["clauses_exported"] += max(
                0, len(exported) - len(family.exported)
            )
            family.exported = exported
        proven = _proven_lower_bound(outcome, family.bound_used)
        if proven is not None and (
            family.lower_bound is None or proven > family.lower_bound
        ):
            family.lower_bound = proven
        if outcome.status in ("optimal", "unsat"):
            family.release_solver()
        return outcome

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def build_mapping_result(
        self,
        circuit: QuantumCircuit,
        best: SubsetOutcome,
        outcomes: Sequence[SubsetOutcome],
        spots: Sequence[int],
        subsets_total: int,
        runtime_seconds: float,
        budget_exhausted: bool = False,
        upper_bound: Optional[int] = None,
        extra_statistics: Optional[Dict[str, object]] = None,
    ) -> MappingResult:
        """Assemble the :class:`MappingResult` from per-subset outcomes."""
        num_logical = circuit.num_qubits
        schedule = MappingSchedule(
            num_logical=num_logical,
            num_physical=self.coupling.num_qubits,
            mappings=best.mappings,
            initial_mapping=best.mappings[0],
        )
        # Minimality is only guaranteed for the unrestricted formulation over
        # all physical qubits (see accepts_seeds_for), with the optimiser
        # having proven (bounded) optimality and the whole budget having
        # sufficed.  A seeded upper bound does not void the claim: a solution
        # at or below the seed was found, so the bounded minimum equals the
        # true minimum.
        proven_minimal = (
            best.is_optimal
            and self.accepts_seeds_for(num_logical)
            and not budget_exhausted
        )
        session_keys = (
            "solve_calls",
            "assumption_solves",
            "bound_nodes_created",
            "bound_nodes_reused",
            "bound_clauses_added",
            "learned_clauses_retained",
        )
        # Strategy-level counters (unprefixed): descent progress and
        # core-guided bookkeeping, summed over the solved instances (every
        # seeded model is DP's, counted as ``families_dp_seeded``).
        # ``core_lower_bound`` is NOT summable — each instance's value
        # bounds only its own sub-problem — so the winning instance's bound
        # is reported instead (below).
        strategy_keys = (
            "descent_iterations",
            "cores_found",
            "core_literals_relaxed",
        )
        statistics = {
            "subsets_total": subsets_total,
            "subsets_tried": len(outcomes),
            "subsets_skipped": subsets_total - len(outcomes),
            "subsets_solved": sum(
                1 for o in outcomes if not o.reused and not o.pruned
            ),
            "subsets_pruned": sum(1 for o in outcomes if o.pruned),
            "family_reuses": sum(1 for o in outcomes if o.reused),
            "solver_conflicts": sum(o.conflicts for o in outcomes),
            "solver_iterations": sum(o.iterations for o in outcomes),
            "solver_propagations": sum(
                o.statistics.get("propagations", 0) for o in outcomes
            ),
            "encoding_variables": sum(o.variables for o in outcomes),
            "encoding_clauses": sum(o.clauses for o in outcomes),
            "budget_exhausted": budget_exhausted,
        }
        for key in session_keys:
            statistics[f"session_{key}"] = sum(
                o.statistics.get(key, 0) for o in outcomes
            )
        for key in strategy_keys:
            total = sum(o.statistics.get(key, 0) for o in outcomes)
            if total:
                statistics[key] = total
        core_lower_bound = best.statistics.get("core_lower_bound", 0)
        if core_lower_bound:
            statistics["core_lower_bound"] = core_lower_bound
        statistics["optimizer"] = self.optimizer
        # Backend provenance: which CDCL implementation (pure / compiled)
        # produced these counters.  Counters are bit-identical across
        # backends; wall-clock numbers are not, so perf records need this.
        statistics.update(solver_backend_provenance())
        if best.core_labels:
            statistics["final_core"] = list(best.core_labels)
        if upper_bound is not None:
            statistics["seeded_upper_bound"] = upper_bound
        if extra_statistics:
            statistics.update(extra_statistics)
        # Reconstruction needs SWAP sequences on the full device: the exact
        # table below 8 qubits, the polynomial routed synthesizer above.  A
        # routed reconstruction realises the schedule with upper-bound SWAP
        # sequences, so the result can no longer claim proven minimality.
        synthesizer = shared_synthesizer(self.coupling)
        if not synthesizer.optimal:
            statistics["routed_reconstruction"] = 1
        return build_result(
            circuit,
            schedule,
            self.coupling,
            engine="sat",
            strategy=self.strategy.name,
            objective=best.objective,
            optimal=proven_minimal and synthesizer.optimal,
            runtime_seconds=runtime_seconds,
            num_permutation_spots=len(spots),
            statistics=statistics,
            permutation_table=synthesizer,
        )

    # ------------------------------------------------------------------
    def map(
        self,
        circuit: QuantumCircuit,
        upper_bound: Optional[int] = None,
        artifacts=None,
    ) -> MappingResult:
        """Map *circuit* to the architecture with minimal added cost.

        Args:
            circuit: The circuit to map.
            upper_bound: Optional inclusive bound on the objective, e.g. the
                added cost of a heuristic solution.  Only mappings at most
                this expensive are searched for; when none exists,
                :class:`SATMapperError` is raised even though the unbounded
                problem may be satisfiable.
            artifacts: Optional solve-artifact cache handle (see
                :class:`repro.service.store.ArtifactCache`).  Families
                warm-start from persisted clauses and bounds of
                structurally identical past jobs, and this run's harvest is
                merged back on completion.  Hit rates are reported under
                ``artifact_*`` statistics keys.  ``None`` (the default)
                solves cold — results never change either way, only the
                work needed to reach them.

        Raises:
            SATMapperError: If no valid mapping exists within the bound (or
                none was found within the time budget).
            ValueError: If the circuit does not fit on the device.
        """
        start = time.monotonic()
        num_logical = circuit.num_qubits
        num_physical = self.coupling.num_qubits
        if num_logical > num_physical:
            raise ValueError(
                f"circuit has {num_logical} logical qubits but the device only "
                f"has {num_physical}"
            )
        if upper_bound is not None and upper_bound < 0:
            raise ValueError("upper_bound must be non-negative")
        gates, spots = self.cnot_instance(circuit)
        if not gates:
            schedule = default_schedule(num_logical, self.coupling)
            return build_result(
                circuit, schedule, self.coupling,
                engine="sat", strategy=self.strategy.name,
                objective=0, optimal=True,
                runtime_seconds=time.monotonic() - start,
                num_permutation_spots=0,
                statistics={},
                )

        subsets = self.candidate_subsets(num_logical)
        families = self.plan_families(subsets, gates)
        sweep = _Sweep(gates, num_logical, spots, upper_bound, artifacts=artifacts)
        for family in families:
            if sweep.found_zero or sweep.budget_exhausted:
                break
            if not family.connected:
                for index in family.indices:
                    sweep.outcomes.append(
                        SubsetOutcome(subset=tuple(subsets[index]), status="unsat")
                    )
                continue
            for index in family.indices:
                subset = tuple(subsets[index])
                outcome = family.mirrored(subset, sweep.bound)
                if outcome is None:
                    remaining = self._remaining_time(start)
                    if (remaining is not None and remaining <= 0) or self._cancelled():
                        # Budget spent (or the job was cancelled): do not
                        # launch further solver calls.  The best solution
                        # found so far (if any) is returned as non-optimal.
                        sweep.budget_exhausted = True
                        break
                    outcome = self._visit_family(sweep, family, subset, remaining)
                sweep.record(outcome)
                if sweep.found_zero:
                    break

        # Persist this sweep's harvest before the no-solution check — proven
        # unsatisfiability (infinite bounds) is exactly what saves the next
        # structurally identical job the most work.
        sweep.save_artifacts()

        if sweep.best is None:
            raise SATMapperError.no_solution(sweep.budget_exhausted)

        return self.build_mapping_result(
            circuit,
            sweep.best,
            sweep.outcomes,
            spots,
            subsets_total=len(subsets),
            runtime_seconds=time.monotonic() - start,
            budget_exhausted=sweep.budget_exhausted,
            upper_bound=upper_bound,
            extra_statistics={
                "families_total": len(families),
                **sweep.counters,
                "artifact_seeding": int(sweep.artifacts is not None),
                **(
                    {"artifact_notes": list(sweep.artifact_notes)}
                    if sweep.artifact_notes else {}
                ),
            },
        )


__all__ = [
    "SATMapper",
    "SATMapperError",
    "SubsetOutcome",
    "SHARE_MAX_CLAUSE_SIZE",
]

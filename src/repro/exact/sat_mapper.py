"""The paper's mapping method: symbolic formulation + reasoning engine.

:class:`SATMapper` builds the Boolean formulation of Section 3.2 (via
:mod:`repro.exact.encoding`), hands it to the SAT-based optimiser of
:mod:`repro.sat` and turns the minimal model into an architecture-compliant
circuit.  The performance improvements of Section 4 are available through

* ``use_subsets=True`` — map onto every connected subset of ``n`` physical
  qubits separately and keep the best result (Section 4.1),
* ``strategy=...`` — restrict the gates before which the mapping may change
  (Section 4.2).

The subset sweep is organised around four reuse layers:

* **Subset families** — two subsets whose induced sub-couplings re-index to
  the same directed edge set produce *identical* encodings, so they form one
  family that is encoded and solved once; the other members mirror the
  outcome (translated to their own device indices) without any solver call.
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
  and are injected into those sessions before their first solve.  Set the
  environment variable ``REPRO_CHECK_IMPORTS`` to verify every imported
  clause by refutation (slow; used by the property tests).

The sweep is sequential by design: pruning, clause sharing and model
transfer all draw on the families solved before, so a family solved without
that prefix pays the full cost of an unbounded search.  Parallelism belongs
one level up: across circuits
(:meth:`repro.pipeline.pipeline.MappingPipeline.map_many`) and across the
worker processes of the serving fleet.  Per-architecture artefacts
(permutation tables, connected subsets) come from the process-wide caches in
:mod:`repro.arch.cache`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.encoding import EncodingError, MappingEncoding, build_encoding
from repro.exact.reconstruction import build_result, default_schedule
from repro.exact.result import MappingResult, MappingSchedule, schedule_is_valid
from repro.exact.strategies import AllGatesStrategy, PermutationStrategy
from repro.exact.sweep import (
    artifact_key,
    clause_is_implied,
    clauses_to_template,
    directed_edges_key,
    encoding_variable_remap,
    find_edge_embedding,
    schedule_cost,
    structural_lower_bound,
    template_clause_remap,
    translate_schedule,
)
from repro.arch.cache import (
    shared_connected_subsets,
    shared_permutation_table,
    shared_synthesizer,
)
from repro.arch.permutations import invert_permutation
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


@dataclass
class _FamilyState:
    """Live solving state of one subset family during a sweep.

    The encoding (and therefore the session) belongs to the *family*, not to
    a particular subset: outcomes carry subset-relative ("local") mappings
    here and are translated per member.
    """

    encoding: Optional[MappingEncoding]
    optimizer: Optional[OptimizingSolver]
    session: Optional[SolveSession]
    status: Optional[str] = None
    objective: Optional[int] = None
    local_mappings: Optional[List[Tuple[int, ...]]] = None
    bound_used: Optional[int] = None

    def release_solver(self) -> None:
        """Drop the live solver once the family is conclusively decided.

        A sweep can cover many families; keeping every CDCL solver (watch
        lists, learned clauses) alive until the end would grow memory with
        the family count, while a conclusive (``optimal``/``unsat``) family
        only ever serves mirrored outcomes from the recorded fields.
        """
        self.encoding = None
        self.optimizer = None
        self.session = None


@dataclass
class FamilyPlan:
    """One subset family of a sweep, in solving order.

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
    """

    indices: List[int]
    key: Tuple
    sub_coupling: CouplingMap
    heuristic_lower_bound: int
    connected: bool


@dataclass
class _SharedVars:
    """Slim view of an encoding's shareable variable layers.

    Retained in the sweep's family records after the heavyweight encoding
    (its CNF clause list) has been released — everything
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


@dataclass
class _FamilyRecord:
    """What a processed family leaves behind for the rest of the sweep."""

    plan: FamilyPlan
    shared_vars: Optional[_SharedVars]
    lower_bound: Optional[float]
    exported: List[Tuple[int, ...]]
    schedule: Optional[List[Tuple[int, ...]]] = None
    schedule_objective: Optional[int] = None


class SweepContext:
    """Cross-family bookkeeping of one sweep: proven bounds and clause pool.

    The sweep (:meth:`SATMapper.map`) feeds processed families in via
    :meth:`note_family`, queries :meth:`family_lower_bound` before touching
    the next one, and pulls translated learned clauses via :meth:`import_into`.

    With an *artifacts* cache (see
    :class:`repro.service.store.ArtifactCache` — duck-typed here as
    anything with ``load(key)``/``save(key, payload)``) and the instance
    shape (*gates*, *num_logical*, *spots*), the context additionally
    consults **persisted solve artifacts** from structurally identical past
    jobs: learned clauses (:meth:`artifact_import_into`), proven lower
    bounds (:meth:`artifact_lower_bound`, directed-orientation matched) and
    incumbent schedules (:meth:`artifact_incumbent`, re-costed), and writes
    this sweep's harvest back via :meth:`save_artifacts`.  Every artifact
    consumption is shape-checked against the live encoding; a corrupt or
    mismatched row degrades to bound-only seeding with a note in
    :attr:`artifact_notes`, never to an error.
    """

    def __init__(
        self,
        gates: Optional[Sequence[Tuple[int, int]]] = None,
        num_logical: Optional[int] = None,
        spots: Optional[Sequence[int]] = None,
        artifacts=None,
    ) -> None:
        self.records: List[_FamilyRecord] = []
        self._embeddings: Dict[Tuple, Optional[Tuple[int, ...]]] = {}
        self.clauses_exported = 0
        self.clauses_imported = 0
        self.families_pruned = 0
        self.families_closed = 0
        self.models_transferred = 0
        self.gates = [tuple(gate) for gate in gates] if gates else None
        self.num_logical = num_logical
        self.spots = list(spots) if spots is not None else None
        self.artifacts = artifacts
        self.artifact_clauses_imported = 0
        self.artifact_bounds_used = 0
        self.artifact_models_used = 0
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.artifact_notes: List[str] = []
        self._artifact_rows: Dict[str, Optional[Dict]] = {}

    # ------------------------------------------------------------------
    # Persisted artifacts (cross-job warm starts)
    # ------------------------------------------------------------------
    def _artifact_for(
        self, sub_coupling: CouplingMap
    ) -> Tuple[Optional[str], Optional[Dict]]:
        """The (cached) artifact row for one family, with hit/miss counting."""
        if (
            self.artifacts is None
            or self.gates is None
            or self.num_logical is None
            or self.spots is None
        ):
            return None, None
        key = artifact_key(self.gates, self.num_logical, sub_coupling, self.spots)
        if key not in self._artifact_rows:
            try:
                payload = self.artifacts.load(key)
            except Exception:  # noqa: BLE001 - seeding must never fail a solve
                payload = None
            self._artifact_rows[key] = payload
            if payload is None:
                self.artifact_misses += 1
            else:
                self.artifact_hits += 1
        return key, self._artifact_rows[key]

    def artifact_lower_bound(self, sub_coupling: CouplingMap) -> Optional[float]:
        """A persisted proven lower bound for this family, or ``None``.

        Only bound entries proven under *exactly* this family's directed
        edge set apply — same-key families with another CNOT orientation
        pay different reversal costs, so their bounds do not transfer.
        """
        _, payload = self._artifact_for(sub_coupling)
        if payload is None:
            return None
        bound = payload["bounds"].get(directed_edges_key(sub_coupling))
        if bound is None:
            return None
        return float(bound)

    def artifact_incumbent(
        self,
        sub_coupling: CouplingMap,
        table,
        bound: Optional[int],
    ) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """A persisted schedule for this family, re-costed, or ``None``.

        Placement validity follows from skeleton-key equality (local
        indices mean the same physical structure); the reversal cost does
        not, so the schedule is re-costed against this family's directed
        edges via :func:`repro.exact.sweep.schedule_cost` — a schedule that
        fails the re-costing (corrupt row) is dropped with a note.
        """
        _, payload = self._artifact_for(sub_coupling)
        if payload is None or payload.get("schedule") is None:
            return None
        if self.gates is None:
            return None
        mappings = [tuple(mapping) for mapping in payload["schedule"]]
        cost = schedule_cost(sub_coupling, table, self.gates, mappings)
        if cost is None:
            self.artifact_notes.append(
                "persisted schedule does not place this family's gates on "
                "coupled pairs; model seeding skipped for this family"
            )
            return None
        if bound is not None and cost > bound:
            return None
        return mappings, cost

    def artifact_import_into(
        self, sub_coupling: CouplingMap, state: "_FamilyState"
    ) -> int:
        """Inject persisted learned clauses into *state*'s session.

        The clauses arrive in template numbering; skeleton-key equality
        makes the translation a constant shift
        (:func:`repro.exact.sweep.template_clause_remap`).  A row whose
        variable-block shape disagrees with the live encoding (a corrupt or
        foreign row) contributes nothing — its bounds and schedule are
        still semantically validated elsewhere, so seeding degrades to
        bound-only with a note.  With ``REPRO_CHECK_IMPORTS`` set, every
        clause is verified implied by the target formula via refutation.
        """
        if state.encoding is None or state.session is None:
            return 0
        _, payload = self._artifact_for(sub_coupling)
        if payload is None or not payload["clauses"]:
            return 0
        encoding = state.encoding
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
            return 0
        remap = template_clause_remap(
            payload["x_var_limit"], payload["spot_var_count"], encoding
        )
        clauses = [tuple(clause) for clause in payload["clauses"]]
        if os.environ.get("REPRO_CHECK_IMPORTS"):
            for clause in clauses:
                mapped = [
                    remap[abs(l)] if l > 0 else -remap[abs(l)]
                    for l in clause
                    if abs(l) in remap
                ]
                if len(mapped) != len(clause):
                    continue
                if not clause_is_implied(encoding.cnf, mapped):
                    raise AssertionError(
                        f"artifact clause {clause} (mapped {mapped}) is not "
                        f"implied by the target family's formula"
                    )
        imported = state.session.import_clauses(clauses, remap=remap)
        self.artifact_clauses_imported += imported
        return imported

    def save_artifacts(self) -> int:
        """Persist every processed family's harvest; returns rows written.

        Per family: exported learned clauses re-based to template numbering,
        the proven lower bound keyed by the directed edge set it was proven
        under, and the best local schedule.  Families with nothing useful
        (no clauses, no positive bound, no schedule) write nothing.  Write
        failures are swallowed — persisting artifacts is best-effort.
        """
        if self.artifacts is None or self.gates is None:
            return 0
        written = 0
        for record in self.records:
            key, _ = self._artifact_for(record.plan.sub_coupling)
            if key is None:
                continue
            clauses: List[List[int]] = []
            x_var_limit = len(self.gates) * self.num_logical * (
                record.plan.sub_coupling.num_qubits
            )
            spot_var_count = 0
            shared = record.shared_vars
            if record.exported and shared is not None:
                clauses = clauses_to_template(
                    record.exported, shared.x_var_limit, shared.spot_var_start
                )
                x_var_limit = shared.x_var_limit
                spot_var_count = shared.spot_var_end - shared.spot_var_start
            bounds: Dict[str, float] = {}
            if record.lower_bound is not None and record.lower_bound > 0:
                bounds[directed_edges_key(record.plan.sub_coupling)] = (
                    record.lower_bound
                )
            payload = {
                "version": 1,
                "x_var_limit": x_var_limit,
                "spot_var_count": spot_var_count,
                "clauses": clauses,
                "bounds": bounds,
                "schedule": (
                    [list(mapping) for mapping in record.schedule]
                    if record.schedule is not None else None
                ),
                "objective": record.schedule_objective,
            }
            if not clauses and not bounds and payload["schedule"] is None:
                continue
            try:
                self.artifacts.save(key, payload)
                written += 1
            except Exception:  # noqa: BLE001 - best-effort persistence
                continue
        return written

    def artifact_statistics(self) -> Dict[str, int]:
        """The artifact hit-rate counters of this sweep (always complete)."""
        return {
            "artifact_clauses_imported": self.artifact_clauses_imported,
            "artifact_bounds_used": self.artifact_bounds_used,
            "artifact_models_used": self.artifact_models_used,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
        }

    # ------------------------------------------------------------------
    def note_family(
        self,
        plan: FamilyPlan,
        lower_bound: Optional[float],
        shared_vars: Optional[_SharedVars] = None,
        exported: Optional[List[Tuple[int, ...]]] = None,
        schedule: Optional[List[Tuple[int, ...]]] = None,
        schedule_objective: Optional[int] = None,
    ) -> None:
        """Record a processed (solved or pruned) family.

        A family that is solved again (an inconclusive representative
        re-minimised for a later member) updates its record in place: the
        export list is replaced (``export_learned`` is cumulative) and the
        proven bound only ever rises.
        """
        exported = exported or []
        for record in self.records:
            if record.plan is plan:
                if exported:
                    self.clauses_exported += max(
                        0, len(exported) - len(record.exported)
                    )
                    record.exported = exported
                if lower_bound is not None and (
                    record.lower_bound is None
                    or lower_bound > record.lower_bound
                ):
                    record.lower_bound = lower_bound
                if shared_vars is not None:
                    record.shared_vars = shared_vars
                if schedule is not None and (
                    record.schedule_objective is None
                    or schedule_objective < record.schedule_objective
                ):
                    record.schedule = schedule
                    record.schedule_objective = schedule_objective
                return
        self.clauses_exported += len(exported)
        self.records.append(
            _FamilyRecord(
                plan=plan, shared_vars=shared_vars,
                lower_bound=lower_bound, exported=exported,
                schedule=schedule, schedule_objective=schedule_objective,
            )
        )

    def _embedding(
        self, inner: FamilyPlan, outer: FamilyPlan, directed: bool
    ) -> Optional[Tuple[int, ...]]:
        cache_key = (inner.key, outer.key, directed)
        if cache_key not in self._embeddings:
            self._embeddings[cache_key] = find_edge_embedding(
                inner.sub_coupling, outer.sub_coupling, directed=directed
            )
        return self._embeddings[cache_key]

    # ------------------------------------------------------------------
    def lower_bound_for(self, plan: FamilyPlan) -> float:
        """The tightest proven lower bound available for *plan*'s family.

        Combines the family's own structural bound with bounds transferred
        from processed families it embeds into: when every edge of this
        family maps into family *B* under some vertex relabelling, every
        schedule here is also valid on *B* at no higher cost, so this
        family's optimum is at least *B*'s proven bound.
        """
        bound: float = plan.heuristic_lower_bound
        for record in self.records:
            if record.lower_bound is None or record.lower_bound <= bound:
                continue
            # Bound transfer needs the cost-preserving (directed) relation.
            if self._embedding(plan, record.plan, directed=True) is not None:
                bound = record.lower_bound
        return bound

    def family_lower_bound(self, plan: FamilyPlan) -> Tuple[float, float]:
        """The family's proven lower bound, and the in-sweep part of it.

        Returns ``(proven, in_sweep)``: *in_sweep* is
        :meth:`lower_bound_for` (structural or transferred by embedding),
        *proven* the maximum of it and the stored bound for this exact edge
        orientation (:meth:`artifact_lower_bound`).  A decision that holds
        for *proven* but not for *in_sweep* is credited to the store.
        """
        in_sweep = self.lower_bound_for(plan)
        persisted = self.artifact_lower_bound(plan.sub_coupling)
        if persisted is not None and persisted > in_sweep:
            return persisted, in_sweep
        return in_sweep, in_sweep

    # ------------------------------------------------------------------
    def incumbent_for(
        self,
        plan: FamilyPlan,
        gates: Sequence[Tuple[int, int]],
        table,
        bound: Optional[int],
    ) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """A warm-start schedule for *plan*, transferred from a solved family.

        A schedule found on family *B* relabelled through an undirected
        embedding stays *placement-valid* on this family (constraint (2)
        accepts a coupled pair in either orientation); only its reversal
        cost changes, and :func:`repro.exact.sweep.schedule_cost` recomputes
        the exact objective against this family's edge directions.  The
        cheapest transferable schedule at or below *bound* is returned as
        ``(local mappings, objective)`` — a genuine feasible solution, so
        the descent starts directly below it (phases seeded, first model
        free) instead of descending from scratch.
        """
        best: Optional[Tuple[List[Tuple[int, ...]], int]] = None
        for record in self.records:
            if record.schedule is None:
                continue
            sigma = self._embedding(plan, record.plan, directed=False)
            if sigma is None:
                continue
            translated = translate_schedule(
                record.schedule, invert_permutation(sigma)
            )
            cost = schedule_cost(plan.sub_coupling, table, gates, translated)
            if cost is None:
                continue
            if bound is not None and cost > bound:
                continue
            if best is None or cost < best[1]:
                best = (translated, cost)
        if best is not None:
            self.models_transferred += 1
        return best

    # ------------------------------------------------------------------
    def import_into(self, plan: FamilyPlan, state: "_FamilyState") -> int:
        """Inject every transferable recorded clause into *state*'s session.

        Clauses flow from an edge-superset family (where they were learned)
        into this edge-subset family, remapped through the inverse of the
        embedding over the shared variable roles.
        """
        assert state.encoding is not None and state.session is not None
        check_imports = bool(os.environ.get("REPRO_CHECK_IMPORTS"))
        imported = 0
        for record in self.records:
            if not record.exported or record.shared_vars is None:
                continue
            # Clause transfer only needs hard-constraint satisfiability to
            # carry over, so the looser undirected relation applies.
            sigma = self._embedding(plan, record.plan, directed=False)
            if sigma is None:
                continue
            remap = encoding_variable_remap(
                record.shared_vars, state.encoding, invert_permutation(sigma)
            )
            if check_imports:
                for clause in record.exported:
                    mapped = [
                        remap[abs(l)] if l > 0 else -remap[abs(l)]
                        for l in clause
                        if abs(l) in remap
                    ]
                    if len(mapped) != len(clause):
                        continue
                    if not clause_is_implied(state.encoding.cnf, mapped):
                        raise AssertionError(
                            f"imported clause {clause} (mapped {mapped}) is "
                            f"not implied by the target family's formula"
                        )
            imported += state.session.import_clauses(
                record.exported, remap=remap
            )
        self.clauses_imported += imported
        return imported


class SATMapper:
    """Exact mapper using the paper's symbolic formulation and a SAT optimiser.

    Args:
        coupling: Target architecture.
        strategy: Permutation-restriction strategy (Section 4.2); defaults to
            permutations before every gate (the minimal formulation).
        use_subsets: Solve one instance per connected subset of ``n`` physical
            qubits instead of one instance over all ``m`` (Section 4.1).
        optimizer: Objective descent: ``"core"`` (the default),
            ``"linear"`` or ``"binary"`` (see :mod:`repro.sat.optimize`);
            validated at construction time.
        time_limit: Optional wall-clock budget in seconds for the whole
            mapping call; when exhausted the best solution found so far is
            returned (not necessarily minimal) and the remaining subset
            instances are skipped.
        conflict_limit: Optional per-solver-call conflict budget.
        decompose_swaps: Emit SWAPs as their 7-gate decomposition (default).
        share_clauses: Share work across subset families: sibling families
            instantiate one cached encoding skeleton instead of re-running
            the Tseitin construction, and learned clauses cross family
            boundaries along edge embeddings (see the module docstring).
            Never changes the result — only how fast it is found.
        prune_families: Skip — without solving — subset families whose
            proven lower bound (structural, or transferred from a decided
            family they embed into) already meets the sweep incumbent.
            Never changes the proven minimum.

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
        decompose_swaps: bool = True,
        share_clauses: bool = True,
        prune_families: bool = True,
    ):
        self.coupling = coupling
        self.strategy = strategy if strategy is not None else AllGatesStrategy()
        self.use_subsets = use_subsets
        # Resolve (and thereby validate) the strategy name up front: a typo
        # should fail at construction, not after minutes of encoding work.
        self.optimizer = resolve_optimizer_name(optimizer)
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        self.decompose_swaps = decompose_swaps
        self.share_clauses = share_clauses
        self.prune_families = prune_families
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
    @property
    def accepts_external_bound(self) -> bool:
        """Whether an externally derived upper bound is safe to assert.

        A bound taken from *any* valid mapping (a heuristic, a cached result
        on the same or a sub-architecture) is an upper bound on the **true**
        minimum.  Asserting it is only safe when this mapper's search space
        contains the true minimum — i.e. the unrestricted formulation over
        all physical qubits.  Restricted strategies and the subset sweep may
        have a higher restricted minimum, where an external bound could turn
        a solvable instance unsatisfiable.
        """
        return self.strategy.guarantees_minimality and not self.use_subsets

    @property
    def accepts_initial_model(self) -> bool:
        """Whether a cached schedule may seed the search as an incumbent model.

        Same condition as :attr:`accepts_external_bound` — the schedule's
        cost is asserted as an upper bound alongside the model, so both
        gates share one safety argument — plus the schedule must survive
        validation against this mapper's coupling map and permutation spots
        (see :meth:`map`).
        """
        return self.accepts_external_bound

    @property
    def accepts_artifacts(self) -> bool:
        """Whether a persisted solve-artifact cache may warm-start this mapper.

        Always true — and deliberately *not* tied to
        :attr:`accepts_external_bound`: artifact material is keyed by the
        encoding skeleton of each individual subset family (gates × n × m ×
        spots × undirected edges), so clauses, bounds and schedules apply
        *within* the family they were harvested from, restricted search
        space or not.  The global-bound safety argument that makes sweeps
        reject external bounds simply never arises.
        """
        return True

    def validate_schedule(
        self, circuit: QuantumCircuit, mappings: Sequence[Tuple[int, ...]]
    ) -> bool:
        """Whether *mappings* is a valid schedule for *circuit* on this device.

        See :func:`repro.exact.result.schedule_is_valid` (shared with the
        model-seeding bound providers).
        """
        return schedule_is_valid(circuit, mappings, self.coupling)

    def candidate_subsets(self, num_logical: int) -> List[Tuple[int, ...]]:
        """Physical-qubit subsets to try (Section 4.1)."""
        num_physical = self.coupling.num_qubits
        if not self.use_subsets or num_logical >= num_physical:
            return [tuple(range(num_physical))]
        return shared_connected_subsets(self.coupling, num_logical)

    def subset_family_groups(
        self, subsets: Sequence[Tuple[int, ...]]
    ) -> List[List[int]]:
        """Group subset indices by induced-subgraph structure.

        Two subsets fall into one family when their re-indexed sub-couplings
        have the same canonical key — their encodings are then identical, so
        one solve covers the whole family.  Groups are ordered by their first
        member and each group is ascending, which keeps the representative
        (the first member) aligned with the sequential sweep order.
        """
        groups: Dict[Tuple, List[int]] = {}
        order: List[Tuple] = []
        for index, subset in enumerate(subsets):
            key = self.coupling.subgraph(subset).canonical_key()
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(index)
        return [groups[key] for key in order]

    def plan_families(
        self,
        subsets: Sequence[Tuple[int, ...]],
        gates: Sequence[Tuple[int, int]],
    ) -> List[FamilyPlan]:
        """Group subsets into families and fix the sweep's solving order.

        Families are sorted by ``(heuristic lower bound, canonical coupling
        key)`` — a *stable* sort, so the order is fully determined by the
        architecture and the circuit.  Densest sub-couplings (lowest
        structural bound) come first: they tend to hold the cheapest
        mappings, which establishes a tight incumbent early and lets the
        sparse tail be pruned without solving.  A fixed order makes the
        pruning, and therefore every benchmark counter, reproducible.
        """
        plans: List[FamilyPlan] = []
        for group in self.subset_family_groups(subsets):
            sub_coupling = self.coupling.subgraph(subsets[group[0]])
            connected = sub_coupling.is_connected()
            plans.append(
                FamilyPlan(
                    indices=list(group),
                    key=sub_coupling.canonical_key(),
                    sub_coupling=sub_coupling,
                    heuristic_lower_bound=(
                        structural_lower_bound(sub_coupling, gates)
                        if connected else 0
                    ),
                    connected=connected,
                )
            )
        # Stable sort: ties keep the canonical keys' first-appearance order
        # over the (sorted) subset enumeration, which is itself a pure
        # function of the architecture — the overall order is reproducible
        # across runs and processes.
        plans.sort(key=lambda plan: plan.heuristic_lower_bound)
        return plans

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
    def _family_state(
        self,
        sub_coupling: CouplingMap,
        gates: Sequence[Tuple[int, int]],
        num_logical: int,
        spots: Sequence[int],
    ) -> _FamilyState:
        """Encode one subset family and open its persistent session."""
        table = shared_permutation_table(sub_coupling)
        encoding = build_encoding(
            list(gates), num_logical, sub_coupling,
            permutation_spots=list(spots),
            permutation_table=table,
            reuse_skeleton=self.share_clauses,
        )
        optimizer = OptimizingSolver(encoding.cnf, encoding.objective)
        session = optimizer.make_session()
        if self.control is not None:
            self.control.register(session.solver)
        return _FamilyState(
            encoding=encoding,
            optimizer=optimizer,
            session=session,
        )

    @staticmethod
    def _translate(
        local_mappings: Sequence[Tuple[int, ...]], subset: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Subset-relative physical indices back to device indices."""
        return [
            tuple(subset[physical] for physical in mapping)
            for mapping in local_mappings
        ]

    def _solve_family(
        self,
        state: _FamilyState,
        subset: Tuple[int, ...],
        time_limit: Optional[float],
        upper_bound: Optional[int],
        incumbent: Optional[Tuple[List[Tuple[int, ...]], int]] = None,
    ) -> SubsetOutcome:
        """Run the optimiser on the family's live session and record the outcome.

        *incumbent* is an optional ``(local mappings, objective)`` warm
        start: the schedule is translated into an ``x``-variable assignment
        that seeds the solver's phases and counts as the first feasible
        solution.  A schedule the encoding rejects (wrong shape, off-spot
        mapping change) is silently dropped — seeding is an optimisation,
        never a correctness requirement.
        """
        assert state.optimizer is not None and state.encoding is not None
        initial_model: Optional[Dict[int, bool]] = None
        initial_objective: Optional[int] = None
        if incumbent is not None:
            try:
                initial_model = state.encoding.assignment_from_schedule(
                    incumbent[0]
                )
                initial_objective = incumbent[1]
            except EncodingError:
                initial_model = None
                initial_objective = None
        outcome: OptimizationResult = state.optimizer.minimize(
            strategy=self.optimizer,
            time_limit=time_limit,
            conflict_limit=self.conflict_limit,
            upper_bound=upper_bound,
            session=state.session,
            initial_model=initial_model,
            initial_objective=initial_objective,
        )
        state.status = outcome.status
        state.bound_used = upper_bound
        if outcome.is_satisfiable:
            state.objective = outcome.objective
            state.local_mappings = state.encoding.extract_schedule(outcome.model)
            mappings = self._translate(state.local_mappings, subset)
        else:
            state.objective = None
            state.local_mappings = None
            mappings = None
        return SubsetOutcome(
            subset=tuple(subset),
            status=outcome.status,
            objective=outcome.objective if outcome.is_satisfiable else None,
            mappings=mappings,
            iterations=outcome.iterations,
            conflicts=outcome.conflicts,
            variables=state.encoding.num_variables,
            clauses=state.encoding.num_clauses,
            statistics=dict(outcome.statistics),
            core_labels=outcome.core_labels,
        )

    def _family_seed(
        self,
        context: SweepContext,
        plan: FamilyPlan,
        state: _FamilyState,
        gates: Sequence[Tuple[int, int]],
        bound: Optional[int],
        incumbent: Optional[Tuple[List[Tuple[int, ...]], int]],
    ) -> Optional[Tuple[List[Tuple[int, ...]], int]]:
        """The family's first incumbent ``(local mappings, objective)``, if any.

        In order of preference: the caller's model (*incumbent*), else a
        cross-family transfer; a stored schedule from a structurally
        identical past job replaces either when it is cheaper.  A candidate
        above the sweep *bound* cannot serve as an incumbent, but it is
        still a valid model of the hard constraints — its x-assignment
        seeds the solver's phases (a pure search hint), steering the
        bounded search into known-feasible territory instead of a cold
        start.
        """
        assert state.encoding is not None and state.session is not None
        table = state.encoding.permutation_table

        def seed_phases(schedule: List[Tuple[int, ...]]) -> bool:
            try:
                state.session.seed_phases(
                    state.encoding.assignment_from_schedule(schedule)
                )
            except EncodingError:
                return False
            return True

        seed = incumbent
        if seed is None and self.share_clauses:
            # Cross-family model transfer: the cheapest schedule already
            # found on an embeddable family, re-costed against these edge
            # directions.
            transfer = context.incumbent_for(plan, gates, table, bound=None)
            if transfer is not None:
                if bound is not None and transfer[1] > bound:
                    seed_phases(transfer[0])
                else:
                    seed = transfer
        persisted = context.artifact_incumbent(
            plan.sub_coupling, table, bound=None
        )
        if persisted is not None and (seed is None or persisted[1] < seed[1]):
            if bound is not None and persisted[1] > bound:
                if seed_phases(persisted[0]):
                    context.artifact_models_used += 1
            else:
                seed = persisted
                context.artifact_models_used += 1
        return seed

    def _close_family(
        self,
        context: SweepContext,
        plan: FamilyPlan,
        state: _FamilyState,
        subset: Tuple[int, ...],
        seed: Tuple[List[Tuple[int, ...]], int],
        time_limit: Optional[float],
        bound: Optional[int],
    ) -> Optional[SubsetOutcome]:
        """Record *seed* as the family's optimum without a solver call.

        Applies when the family's proven lower bound is at least the
        seed's cost and the seed is a real model at that cost — the
        encoding accepts the schedule and its own objective evaluates to
        the re-costed value (:meth:`MappingEncoding.schedule_objective`).
        Returns ``None`` otherwise; the caller then solves as usual.

        With ``REPRO_CHECK_IMPORTS`` set, a closure is still checked: the
        family imports its learned clauses (so they are checked too), the
        refute-first probe runs with the seed as incumbent, and a model
        cheaper than the seed (a stored bound that was not a proof) raises
        :class:`AssertionError`.  The probe's work is reported in the
        outcome's counters.
        """
        assert state.encoding is not None
        local_mappings, objective = seed
        if bound is not None and objective > bound:
            return None
        proven, in_sweep = context.family_lower_bound(plan)
        if proven < objective:
            return None
        try:
            if state.encoding.schedule_objective(local_mappings) != objective:
                return None
        except EncodingError:
            return None
        if in_sweep < objective:
            # Only the persisted bound closes this family.
            context.artifact_bounds_used += 1
        context.families_closed += 1
        outcome = SubsetOutcome(
            subset=tuple(subset),
            status="optimal",
            objective=objective,
            mappings=self._translate(local_mappings, subset),
            variables=state.encoding.num_variables,
            clauses=state.encoding.num_clauses,
            statistics={"model_seeded": 1},
        )
        if os.environ.get("REPRO_CHECK_IMPORTS"):
            self._import_clauses(context, plan, state)
            probe = self._solve_family(
                state, subset, time_limit, bound, incumbent=seed
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
        state.status = "optimal"
        state.objective = objective
        state.local_mappings = list(local_mappings)
        state.bound_used = bound
        return outcome

    def _import_clauses(
        self, context: SweepContext, plan: FamilyPlan, state: _FamilyState
    ) -> None:
        """Learned clauses for a family about to be solved: transferred
        from the sweep's earlier families, and persisted from past jobs."""
        if self.share_clauses:
            context.import_into(plan, state)
        context.artifact_import_into(plan.sub_coupling, state)

    @staticmethod
    def proven_family_lower_bound(
        state: _FamilyState, outcome: SubsetOutcome
    ) -> Optional[float]:
        """Lower bound on the family's true optimum proven by this solve.

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
            bound = (
                float("inf") if state.bound_used is None
                else state.bound_used + 1
            )
        core_bound = outcome.statistics.get("core_lower_bound", 0)
        if core_bound and (bound is None or core_bound > bound):
            bound = core_bound
        return bound

    def _finish_family(
        self,
        context: SweepContext,
        plan: FamilyPlan,
        state: _FamilyState,
        outcome: SubsetOutcome,
    ) -> None:
        """Harvest shareable clauses and proven bounds, then free the solver.

        Must run while the family's session is still alive; conclusive
        (``optimal``/``unsat``) families drop their solver afterwards —
        they only ever serve mirrored outcomes from the recorded fields.
        """
        exported: List[Tuple[int, ...]] = []
        if (
            self.share_clauses
            and state.session is not None
            and state.encoding is not None
        ):
            exported = state.session.export_learned(
                max_size=SHARE_MAX_CLAUSE_SIZE,
                var_ok=state.encoding.is_shared_variable,
            )
        context.note_family(
            plan,
            lower_bound=self.proven_family_lower_bound(state, outcome),
            shared_vars=(
                _SharedVars.of(state.encoding)
                if state.encoding is not None else None
            ),
            exported=exported,
            schedule=(
                list(state.local_mappings)
                if state.local_mappings is not None else None
            ),
            schedule_objective=state.objective,
        )
        if outcome.status in ("optimal", "unsat"):
            # Conclusive families are never re-solved, only mirrored.
            state.release_solver()

    def _reuse_family_outcome(
        self,
        state: _FamilyState,
        subset: Tuple[int, ...],
        bound: Optional[int],
    ) -> Optional[SubsetOutcome]:
        """A mirrored outcome for *subset* when the family is already decided.

        Returns ``None`` when the family's last outcome was inconclusive
        (``"satisfiable"``/``"unknown"`` from an exhausted budget) — the
        caller then re-solves on the family's live session.  Bounds only
        tighten over a sweep, so a conclusive earlier outcome stays valid:
        an optimum above the current bound (and any earlier ``"unsat"``)
        reads as unsatisfiable-within-bound.
        """
        if state.status == "optimal":
            assert state.objective is not None and state.local_mappings is not None
            if bound is None or state.objective <= bound:
                return SubsetOutcome(
                    subset=tuple(subset),
                    status="optimal",
                    objective=state.objective,
                    mappings=self._translate(state.local_mappings, subset),
                    reused=True,
                )
            return SubsetOutcome(subset=tuple(subset), status="unsat", reused=True)
        if state.status == "unsat":
            return SubsetOutcome(subset=tuple(subset), status="unsat", reused=True)
        return None

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
        # all physical qubits, with the optimiser having proven (bounded)
        # optimality and the whole budget having sufficed.  A seeded upper
        # bound does not void the claim: a solution at or below the seed was
        # found, so the bounded minimum equals the true minimum.
        proven_minimal = (
            best.is_optimal
            and self.strategy.guarantees_minimality
            and not self.use_subsets
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
        # Strategy-level counters (unprefixed): descent progress, model
        # warm starts and core-guided bookkeeping, summed over the solved
        # instances.  ``core_lower_bound`` is NOT summable — each instance's
        # value bounds only its own sub-problem — so the winning instance's
        # bound is reported instead (below).
        strategy_keys = (
            "descent_iterations",
            "model_seeded",
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
            decompose_swaps=self.decompose_swaps,
            permutation_table=synthesizer,
        )

    # ------------------------------------------------------------------
    def map(
        self,
        circuit: QuantumCircuit,
        upper_bound: Optional[int] = None,
        initial_model: Optional[Sequence[Tuple[int, ...]]] = None,
        initial_objective: Optional[int] = None,
        artifacts=None,
    ) -> MappingResult:
        """Map *circuit* to the architecture with minimal added cost.

        Args:
            circuit: The circuit to map.
            upper_bound: Optional inclusive bound on the objective, e.g. the
                added cost of a heuristic solution (portfolio seeding).  Only
                mappings at most this expensive are searched for; when none
                exists, :class:`SATMapperError` is raised even though the
                unbounded problem may be satisfiable.
            initial_model: Optional known-valid schedule (one device-indexed
                mapping per CNOT, e.g. from a cached
                :class:`~repro.exact.result.MappingResult`), used as the
                first incumbent: the solver's phases are seeded with it and
                the descent starts directly below *initial_objective* — a
                resubmission of an already-solved circuit then needs only
                the final optimality probe.  The schedule is validated
                against this mapper's coupling map and permutation spots
                first and silently dropped when it does not transfer; it is
                also ignored when :attr:`accepts_initial_model` is false
                (restricted search spaces).
            initial_objective: Added cost of *initial_model* (required with
                it).
            artifacts: Optional solve-artifact cache handle (see
                :class:`repro.service.store.ArtifactCache`).  Families
                warm-start from persisted clauses/bounds/schedules of
                structurally identical past jobs, and this run's harvest is
                merged back on completion.  Hit rates are reported under
                ``artifact_*`` statistics keys.  ``None`` (the default)
                solves cold — results never change either way, only the
                work needed to reach them.

        Raises:
            SATMapperError: If no valid mapping exists within the bound (or
                none was found within the time budget).
            ValueError: If the circuit does not fit on the device, or an
                initial model arrives without its objective.
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
        if (initial_model is None) != (initial_objective is None):
            raise ValueError(
                "initial_model and initial_objective must be given together"
            )
        gates, spots = self.cnot_instance(circuit)

        incumbent: Optional[Tuple[List[Tuple[int, ...]], int]] = None
        if (
            initial_model is not None
            and self.accepts_initial_model
            and self.validate_schedule(circuit, list(initial_model))
        ):
            incumbent = ([tuple(m) for m in initial_model], initial_objective)

        if not gates:
            schedule = default_schedule(num_logical, self.coupling)
            return build_result(
                circuit, schedule, self.coupling,
                engine="sat", strategy=self.strategy.name,
                objective=0, optimal=True,
                runtime_seconds=time.monotonic() - start,
                num_permutation_spots=0,
                statistics={},
                decompose_swaps=self.decompose_swaps,
            )

        subsets = self.candidate_subsets(num_logical)
        plans = self.plan_families(subsets, gates)
        context = SweepContext(
            gates=gates,
            num_logical=num_logical,
            spots=spots,
            artifacts=artifacts if self.accepts_artifacts else None,
        )
        outcomes: List[SubsetOutcome] = []
        best: Optional[SubsetOutcome] = None
        bound = upper_bound
        budget_exhausted = False
        found_zero = False

        for plan in plans:
            if found_zero or budget_exhausted:
                break
            if not plan.connected:
                for index in plan.indices:
                    outcomes.append(
                        SubsetOutcome(subset=tuple(subsets[index]), status="unsat")
                    )
                continue
            remaining = self._remaining_time(start)
            if (remaining is not None and remaining <= 0) or self._cancelled():
                # Budget spent (or the job was cancelled): do not launch
                # further solver calls.  The best solution found so far (if
                # any) is returned as non-optimal.
                budget_exhausted = True
                break
            if self.prune_families and bound is not None:
                proven, in_sweep = context.family_lower_bound(plan)
                if proven > bound:
                    if in_sweep <= bound:
                        # Only the persisted bound prunes this family — the
                        # in-sweep embedding bound alone would not have.
                        context.artifact_bounds_used += 1
                    # The family provably holds nothing at most `bound`:
                    # skip it — and all its members — without solving.  The
                    # bound may serve as an embedding source for later
                    # (sparser) families, so it is recorded.
                    context.families_pruned += 1
                    context.note_family(plan, lower_bound=proven)
                    for index in plan.indices:
                        outcomes.append(
                            SubsetOutcome(
                                subset=tuple(subsets[index]),
                                status="pruned",
                                pruned=True,
                                proven_lower_bound=proven,
                            )
                        )
                    continue
            state = self._family_state(plan.sub_coupling, gates, num_logical, spots)
            representative = tuple(subsets[plan.indices[0]])
            # The incumbent schedule is device-indexed, so it only seeds
            # the full-device instance (the only one that exists when
            # model seeding is allowed — see accepts_initial_model).
            seed = self._family_seed(
                context, plan, state, gates, bound,
                incumbent
                if representative == tuple(range(num_physical)) else None,
            )
            outcome = (
                self._close_family(
                    context, plan, state, representative, seed, remaining,
                    bound,
                )
                if seed is not None else None
            )
            if outcome is None:
                self._import_clauses(context, plan, state)
                outcome = self._solve_family(
                    state, representative, remaining, bound, incumbent=seed
                )
            self._finish_family(context, plan, state, outcome)
            outcomes.append(outcome)
            if outcome.is_satisfiable:
                if best is None or outcome.objective < best.objective:
                    best = outcome
                if best.objective == 0:
                    # A zero-added-cost mapping cannot be beaten by any
                    # other subset — stop the sweep early.
                    found_zero = True
                    continue
                # Tighten: later instances only interest us when strictly
                # cheaper than the incumbent (never above a seeded bound).
                incumbent_bound = best.objective - 1
                bound = (
                    incumbent_bound if bound is None
                    else min(bound, incumbent_bound)
                )
            # Mirror the outcome onto the family's other members (re-solving
            # on the live session only when an earlier attempt was
            # budget-limited and the bound has tightened since).
            for index in plan.indices[1:]:
                member = tuple(subsets[index])
                mirrored = self._reuse_family_outcome(state, member, bound)
                if mirrored is None:
                    remaining = self._remaining_time(start)
                    if (
                        remaining is not None and remaining <= 0
                    ) or self._cancelled():
                        budget_exhausted = True
                        break
                    mirrored = self._solve_family(state, member, remaining, bound)
                    self._finish_family(context, plan, state, mirrored)
                outcomes.append(mirrored)
                if not mirrored.is_satisfiable:
                    continue
                if best is None or mirrored.objective < best.objective:
                    best = mirrored
                if best.objective == 0:
                    found_zero = True
                    break
                incumbent_bound = best.objective - 1
                bound = (
                    incumbent_bound if bound is None
                    else min(bound, incumbent_bound)
                )

        # Persist this sweep's harvest before the no-solution check — proven
        # unsatisfiability (infinite bounds) is exactly what saves the next
        # structurally identical job the most work.
        context.save_artifacts()

        if best is None:
            raise SATMapperError.no_solution(budget_exhausted)

        result = self.build_mapping_result(
            circuit,
            best,
            outcomes,
            spots,
            subsets_total=len(subsets),
            runtime_seconds=time.monotonic() - start,
            budget_exhausted=budget_exhausted,
            upper_bound=upper_bound,
            extra_statistics={
                "families_total": len(plans),
                "families_pruned": context.families_pruned,
                "families_closed": context.families_closed,
                "clauses_exported": context.clauses_exported,
                "clauses_imported": context.clauses_imported,
                "models_transferred": context.models_transferred,
                "clause_sharing": int(self.share_clauses),
                "family_pruning": int(self.prune_families),
                "artifact_seeding": int(context.artifacts is not None),
                **context.artifact_statistics(),
                **(
                    {"artifact_notes": list(context.artifact_notes)}
                    if context.artifact_notes else {}
                ),
            },
        )
        return result


__all__ = [
    "SATMapper",
    "SATMapperError",
    "SubsetOutcome",
    "FamilyPlan",
    "SweepContext",
    "SHARE_MAX_CLAUSE_SIZE",
]

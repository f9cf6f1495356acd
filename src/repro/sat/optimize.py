"""Minimisation of a weighted linear objective over a CNF formula.

This implements the "extended interpretation" of the satisfiability problem
from Definition 3 of the paper: besides a satisfying assignment of the hard
constraints, an assignment minimising ``F = sum(w_i * literal_i)`` is sought.

The *search strategy* — how objective bounds are probed — is pluggable.
Strategies are registered by name in an :class:`OptimizerRegistry`
(mirroring the mapper backend registry in :mod:`repro.pipeline.registry`)
and all run on one persistent :class:`~repro.sat.session.SolveSession`, so
learned clauses, variable activities and saved phases carry over from probe
to probe:

* ``"core"`` (default, :data:`DEFAULT_OPTIMIZER`) — MaxSAT-style
  core-guided descent: assume every objective term off, extract an UNSAT
  core over those selectors from each failure, relax exactly the literals
  in the core, and raise the *proven lower bound* by the core's cheapest
  weight.  Disjoint cores often close most of the objective gap in a
  handful of oracle calls; the remaining interval is finished by bisection
  over the shared bound ladder.  A solve that starts from a known bound or
  incumbent *refutes first*: it fetches a model within the bound (when no
  incumbent is known) and probes ``F <= best - 1`` once on an assumed
  bound, so a seed at the optimum is proven in at most two solver calls;
  only when that probe finds a cheaper model do the cores run.
* ``"linear"`` — the paper's descent: solve once, read off the objective
  value of the model, then repeatedly commit ``F <= best - 1`` until the
  instance becomes unsatisfiable.  The last model found is optimal.
* ``"binary"`` — bisect the objective range; every probe is an assumption
  on the same solver (an UNSAT probe does not poison later, looser probes).

Third-party strategies can join at runtime::

    from repro.sat.optimize import OptimizerStrategy, register_optimizer

    @register_optimizer("annealed", aliases=("sa",))
    class AnnealedDescent(OptimizerStrategy):
        name = "annealed"
        description = "my custom descent"
        def minimize(self, task):
            ...

All strategies return an :class:`OptimizationResult`; when a time or
conflict budget is exhausted the best model found so far is returned with
``is_optimal=False`` (this mirrors the paper's "close-to-minimal"
discussion).  A known feasible assignment can be handed in as an initial
incumbent (``minimize(initial_model=..., initial_objective=...)``): it
seeds the solver's phases and counts as the first feasible solution, so a
proven-optimal re-solve needs only the final UNSAT probe.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Literal
from repro.sat.cores import core_from_session
from repro.sat.pb import evaluate_pb
from repro.sat.session import SolveSession
from repro.sat.solver import SolverResult

#: Registry name of the descent every SAT entry point uses unless told
#: otherwise (``SATMapper``, ``PortfolioMapper``, ``SplitSATMapper``,
#: :meth:`OptimizingSolver.minimize`).
DEFAULT_OPTIMIZER = "core"


@dataclass(frozen=True)
class ObjectiveTerm:
    """One weighted term ``weight * [literal is true]`` of the objective."""

    weight: int
    literal: Literal

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("objective weights must be non-negative")
        if self.literal == 0:
            raise ValueError("0 is not a valid literal")


@dataclass
class OptimizationResult:
    """Outcome of an optimisation run.

    Attributes:
        status: ``"optimal"``, ``"satisfiable"`` (feasible but optimality not
            proven within the budget), ``"unsat"`` or ``"unknown"``.
        model: Best model found (empty when none was found).
        objective: Objective value of :attr:`model` (``None`` when no model).
        iterations: Number of solver calls performed.
        conflicts: Total number of conflicts across all solver calls.
        elapsed_seconds: Wall-clock time spent.
        statistics: Incremental-session counters for this run (bound-ladder
            node reuse, assumption solves, learned-clause retention,
            ``propagations``, ``fresh_solver``) plus strategy counters:
            ``descent_iterations``
            (solver calls that produced a model), ``model_seeded`` (an
            initial incumbent was used), and for the core-guided strategy
            ``cores_found`` / ``core_literals_relaxed`` /
            ``core_lower_bound`` (the lower bound proven by cores alone).
        final_core: Assumption literals of the last UNSAT probe (empty when
            the strategy never solved under assumptions, e.g. pure
            committed-bound linear descent).
        core_labels: Human-readable labels for :attr:`final_core`.
    """

    status: str
    model: Dict[int, bool] = field(default_factory=dict)
    objective: Optional[int] = None
    iterations: int = 0
    conflicts: int = 0
    elapsed_seconds: float = 0.0
    statistics: Dict[str, int] = field(default_factory=dict)
    final_core: Tuple[int, ...] = ()
    core_labels: Tuple[str, ...] = ()

    @property
    def is_optimal(self) -> bool:
        """True when the returned model is provably minimal."""
        return self.status == "optimal"

    @property
    def is_satisfiable(self) -> bool:
        """True when at least one model was found."""
        return self.status in ("optimal", "satisfiable")


class _SessionRun:
    """Bookkeeping for one ``minimize`` call on a (possibly reused) session."""

    def __init__(self, session: SolveSession, fresh: bool):
        self.session = session
        self.fresh = fresh
        self._start_conflicts = session.conflicts
        self._start_propagations = session.propagations
        self._start_stats = dict(session.statistics)

    @property
    def conflicts(self) -> int:
        return self.session.conflicts - self._start_conflicts

    @property
    def propagations(self) -> int:
        return self.session.propagations - self._start_propagations

    def statistics(self) -> Dict[str, int]:
        stats = {
            key: self.session.statistics[key] - self._start_stats.get(key, 0)
            for key in self.session.statistics
        }
        stats["propagations"] = self.propagations
        stats["learned_clauses_retained"] = self.session.learned_clauses
        stats["fresh_solver"] = int(self.fresh)
        return stats


@dataclass
class DescentTask:
    """Everything a strategy needs for one ``minimize`` call.

    The task owns the per-run bookkeeping: strategies report through
    :meth:`result` (which stamps conflicts, wall time and session counters)
    and accumulate strategy-specific counters in :attr:`counters`.
    """

    run: _SessionRun
    objective_value: Callable[[Dict[int, bool]], int]
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    upper_bound: Optional[int] = None
    incumbent_model: Optional[Dict[int, bool]] = None
    incumbent_objective: Optional[int] = None
    start: float = field(default_factory=time.monotonic)
    counters: Dict[str, int] = field(default_factory=dict)
    final_core: Tuple[int, ...] = ()
    core_labels: Tuple[str, ...] = ()

    @property
    def session(self) -> SolveSession:
        return self.run.session

    def remaining(self) -> Optional[float]:
        """Seconds left of the overall budget (clamped positive)."""
        if self.time_limit is None:
            return None
        return max(0.001, self.time_limit - (time.monotonic() - self.start))

    #: Label cap for recorded cores (see ``core_from_session(max_labels=)``).
    MAX_CORE_LABELS = 12

    def record_core(self) -> None:
        """Capture the session's last UNSAT core (with labels) if any."""
        core = core_from_session(self.session, max_labels=self.MAX_CORE_LABELS)
        if not core.is_empty:
            self.final_core = core.literals
            self.core_labels = core.labels

    def result(
        self,
        status: str,
        model: Optional[Dict[int, bool]] = None,
        objective: Optional[int] = None,
        iterations: int = 0,
    ) -> OptimizationResult:
        statistics = self.run.statistics()
        statistics.update(self.counters)
        return OptimizationResult(
            status=status,
            model=model if model is not None else {},
            objective=objective,
            iterations=iterations,
            conflicts=self.run.conflicts,
            elapsed_seconds=time.monotonic() - self.start,
            statistics=statistics,
            final_core=self.final_core,
            core_labels=self.core_labels,
        )


class OptimizerStrategy(ABC):
    """Base class of objective-descent strategies.

    A strategy decides which bounds (or assumption sets) to probe in which
    order; the shared :class:`~repro.sat.session.SolveSession` machinery —
    the incremental solver and the BDD-style bound ladder — is common to
    all of them.
    """

    #: Registry name (canonical, lower-case).
    name: str = "base"

    #: One-line human-readable description (shown by ``--list-optimizers``).
    description: str = ""

    @abstractmethod
    def minimize(self, task: DescentTask) -> OptimizationResult:
        """Run the descent described by *task* and return its result."""


OptimizerFactory = Callable[[], OptimizerStrategy]


class OptimizerRegistry:
    """Name-indexed collection of optimizer-strategy factories.

    Mirrors :class:`repro.pipeline.registry.MapperRegistry`: factories are
    registered under a canonical name plus optional aliases, and a default
    module-level instance backs the convenience functions.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, OptimizerFactory] = {}
        self._aliases: Dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Optional[OptimizerFactory] = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ):
        """Register *factory* under *name* (usable as a decorator).

        Raises:
            ValueError: When a name is already taken and *overwrite* is off.
        """
        if factory is None:
            def decorator(func: OptimizerFactory) -> OptimizerFactory:
                self.register(name, func, aliases=aliases, overwrite=overwrite)
                return func
            return decorator

        key = name.lower()
        taken = [
            candidate
            for candidate in (key, *[alias.lower() for alias in aliases])
            if not overwrite and (candidate in self._factories or candidate in self._aliases)
        ]
        if taken:
            raise ValueError(f"optimizer name(s) already registered: {taken}")
        self._factories[key] = factory
        self._aliases.pop(key, None)
        for alias in aliases:
            self._aliases[alias.lower()] = key
        return factory

    def resolve(self, name: str) -> str:
        """Canonical name for *name* (which may be an alias).

        Raises:
            KeyError: When the name is unknown.
        """
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._factories:
            raise KeyError(
                f"unknown optimizer strategy {name!r}; available: {self.names()}"
            )
        return key

    def create(self, name: str) -> OptimizerStrategy:
        """Instantiate the strategy registered under *name*."""
        return self._factories[self.resolve(name)]()

    def names(self) -> List[str]:
        """Sorted canonical strategy names (aliases excluded)."""
        return sorted(self._factories)

    def descriptions(self) -> Dict[str, str]:
        """Canonical name -> one-line description, for listings."""
        return {name: self._factories[name]().description for name in self.names()}

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True


#: The default registry used by the module-level convenience functions.
OPTIMIZERS = OptimizerRegistry()


def register_optimizer(
    name: str,
    factory: Optional[OptimizerFactory] = None,
    *,
    aliases: Sequence[str] = (),
    overwrite: bool = False,
):
    """Register a strategy in the default registry (see :meth:`OptimizerRegistry.register`)."""
    return OPTIMIZERS.register(name, factory, aliases=aliases, overwrite=overwrite)


def available_optimizers() -> List[str]:
    """Canonical strategy names registered in the default registry."""
    return OPTIMIZERS.names()


def optimizer_descriptions() -> Dict[str, str]:
    """Canonical strategy name -> one-line description."""
    return OPTIMIZERS.descriptions()


def resolve_optimizer_name(name: str) -> str:
    """Canonical name for *name* in the default registry.

    Raises:
        ValueError: When the name is unknown (with the available names in
            the message, so CLI layers can surface it directly).
    """
    try:
        return OPTIMIZERS.resolve(name)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
@register_optimizer("linear", aliases=("descent",))
class LinearDescent(OptimizerStrategy):
    """Monotone descent with permanently committed bounds."""

    name = "linear"
    description = (
        "monotone descent: find a model, commit F <= best-1, repeat until "
        "UNSAT (bounds propagate at level 0; fastest per probe)"
    )

    def minimize(self, task: DescentTask) -> OptimizationResult:
        session = task.session
        iterations = 0
        best_model: Dict[int, bool] = {}
        best_value: Optional[int] = None
        bound = task.upper_bound
        task.counters.setdefault("descent_iterations", 0)

        if task.incumbent_objective is not None:
            best_model = dict(task.incumbent_model or {})
            best_value = task.incumbent_objective
            if best_value == 0:
                return task.result("optimal", best_model, 0, iterations)
            bound = best_value - 1 if bound is None else min(bound, best_value - 1)

        while True:
            iterations += 1
            # The descent only ever tightens, so bounds are committed as
            # permanent unit clauses: they propagate at level 0 (as strongly
            # as a re-encoded formula) while the ladder is still shared.
            outcome = session.solve_with_bound(
                bound,
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
                commit=True,
            )
            if outcome is SolverResult.UNKNOWN:
                status = "satisfiable" if best_value is not None else "unknown"
                return task.result(status, best_model, best_value, iterations)
            if outcome is SolverResult.UNSAT:
                task.record_core()
                if best_value is None:
                    return task.result("unsat", iterations=iterations)
                return task.result("optimal", best_model, best_value, iterations)
            model = session.model()
            value = task.objective_value(model)
            task.counters["descent_iterations"] += 1
            if best_value is None or value < best_value:
                best_value = value
                best_model = model
            if best_value == 0:
                return task.result("optimal", best_model, 0, iterations)
            # Tighten: require an objective strictly below the incumbent.
            bound = best_value - 1


@register_optimizer("binary", aliases=("bisect", "bisection"))
class BinaryDescent(OptimizerStrategy):
    """Bisection of the objective range with assumed bounds."""

    name = "binary"
    description = (
        "bisection: halve the [0, incumbent] objective range with assumed "
        "bound selectors (fewest probes when the first model is far off)"
    )

    def minimize(self, task: DescentTask) -> OptimizationResult:
        session = task.session
        iterations = 0
        task.counters.setdefault("descent_iterations", 0)

        if task.incumbent_objective is not None:
            best_model = dict(task.incumbent_model or {})
            best_value = task.incumbent_objective
            if best_value == 0:
                return task.result("optimal", best_model, 0, iterations)
        else:
            # Initial feasibility check, seeded with the upper bound when
            # given (this also caps ``high`` of the bisection at the seed).
            iterations = 1
            outcome = session.solve_with_bound(
                task.upper_bound,
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
            )
            if outcome is SolverResult.UNKNOWN:
                return task.result("unknown", iterations=iterations)
            if outcome is SolverResult.UNSAT:
                task.record_core()
                return task.result("unsat", iterations=iterations)
            best_model = session.model()
            best_value = task.objective_value(best_model)
            task.counters["descent_iterations"] += 1

        low = 0
        high = best_value
        proven_optimal = True
        while low < high:
            middle = (low + high) // 2
            iterations += 1
            outcome = session.solve_with_bound(
                middle,
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
            )
            if outcome is SolverResult.UNKNOWN:
                proven_optimal = False
                break
            if outcome is SolverResult.SAT:
                model = session.model()
                value = task.objective_value(model)
                task.counters["descent_iterations"] += 1
                best_model = model
                best_value = value
                high = value
            else:
                task.record_core()
                low = middle + 1
        status = "optimal" if proven_optimal else "satisfiable"
        return task.result(status, best_model, best_value, iterations)


@register_optimizer("core", aliases=("core-guided", "core_guided", "maxsat"))
class CoreGuidedDescent(OptimizerStrategy):
    """MaxSAT-style descent driven by UNSAT cores over objective selectors."""

    name = "core"
    description = (
        "core-guided (default): refute a known bound or incumbent first, "
        "else assume all objective terms off, relax exactly the literals of "
        "each UNSAT core (lower bound rises by whole cores), then bisect "
        "the remaining [lower, incumbent] gap"
    )

    def minimize(self, task: DescentTask) -> OptimizationResult:
        session = task.session
        iterations = 0
        task.counters.setdefault("descent_iterations", 0)
        best_model: Dict[int, bool] = dict(task.incumbent_model or {})
        best_value = task.incumbent_objective

        # Merge duplicate selector literals (the same literal may appear in
        # several terms): assuming it off suppresses their combined weight,
        # so a core containing it is worth at least that combined minimum.
        selectors: Dict[int, int] = {}
        for weight, selector in session.term_selectors():
            selectors[selector] = selectors.get(selector, 0) + weight

        lower = 0
        cores_found = 0
        literals_relaxed = 0

        def stamp_counters() -> None:
            task.counters["cores_found"] = cores_found
            task.counters["core_literals_relaxed"] = literals_relaxed
            task.counters["core_lower_bound"] = lower

        # ------------------------------------------------------------------
        # Refute first.  A bounded or seeded solve usually starts at (or
        # next to) the optimum, where one UNSAT probe below the incumbent
        # finishes the proof, while the cores of phase 1 would rebuild the
        # lower bound from zero.  The probe is an *assumed* bound, so every
        # core bound below stays a consequence of the formula.
        # ------------------------------------------------------------------
        if task.upper_bound is not None or best_value is not None:
            if best_value is None:
                iterations += 1
                outcome = session.solve_with_bound(
                    task.upper_bound,
                    conflict_limit=task.conflict_limit,
                    time_limit=task.remaining(),
                )
                if outcome is SolverResult.UNKNOWN:
                    stamp_counters()
                    return task.result("unknown", iterations=iterations)
                if outcome is SolverResult.UNSAT:
                    task.record_core()
                    stamp_counters()
                    return task.result("unsat", iterations=iterations)
                best_model = session.model()
                best_value = task.objective_value(best_model)
                task.counters["descent_iterations"] += 1
            if best_value == 0:
                stamp_counters()
                return task.result("optimal", best_model, 0, iterations)
            iterations += 1
            outcome = session.solve_with_bound(
                best_value - 1,
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
            )
            if outcome is SolverResult.UNKNOWN:
                stamp_counters()
                return task.result("satisfiable", best_model, best_value, iterations)
            if outcome is SolverResult.UNSAT:
                task.record_core()
                stamp_counters()
                return task.result("optimal", best_model, best_value, iterations)
            best_model = session.model()
            best_value = task.objective_value(best_model)
            task.counters["descent_iterations"] += 1

        # ------------------------------------------------------------------
        # Phase 1: disjoint-core lower bounding.  Assume every remaining
        # term off; every UNSAT answer yields a core over those selectors,
        # the core's literals are relaxed (removed from the assumption set)
        # and the proven lower bound rises by the core's cheapest weight.
        # ------------------------------------------------------------------
        while True:
            if best_value is not None and lower >= best_value:
                # The incumbent meets the proven lower bound: optimal
                # without ever probing the bound ladder.
                stamp_counters()
                return task.result("optimal", best_model, best_value, iterations)
            if not selectors and best_value is not None:
                break
            # With every selector relaxed (an empty objective, or merged
            # duplicate selectors) this is a plain solve for a first model.
            iterations += 1
            outcome = session.solve_with_assumptions(
                list(selectors),
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
            )
            if outcome is SolverResult.UNKNOWN:
                stamp_counters()
                status = "satisfiable" if best_value is not None else "unknown"
                return task.result(status, best_model, best_value, iterations)
            if outcome is SolverResult.SAT:
                model = session.model()
                value = task.objective_value(model)
                task.counters["descent_iterations"] += 1
                if best_value is None or value < best_value:
                    best_model, best_value = model, value
                break
            core = session.last_core()
            task.record_core()
            if not core:
                # Hard constraints alone are inconsistent.
                stamp_counters()
                return task.result("unsat", iterations=iterations)
            lower += min(selectors[literal] for literal in core)
            cores_found += 1
            literals_relaxed += len(core)
            for literal in core:
                selectors.pop(literal, None)

        # ------------------------------------------------------------------
        # Phase 2: close the [lower, incumbent] gap by bisection on the
        # shared bound ladder (assumed selectors, same live session).
        # ------------------------------------------------------------------
        low, high = lower, best_value
        proven_optimal = True
        while low < high:
            middle = (low + high) // 2
            iterations += 1
            outcome = session.solve_with_bound(
                middle,
                conflict_limit=task.conflict_limit,
                time_limit=task.remaining(),
            )
            if outcome is SolverResult.UNKNOWN:
                proven_optimal = False
                break
            if outcome is SolverResult.SAT:
                model = session.model()
                value = task.objective_value(model)
                task.counters["descent_iterations"] += 1
                best_model, best_value = model, value
                high = value
            else:
                task.record_core()
                low = middle + 1
        stamp_counters()
        status = "optimal" if proven_optimal else "satisfiable"
        return task.result(status, best_model, best_value, iterations)


class OptimizingSolver:
    """Minimises a weighted objective subject to a CNF formula.

    Args:
        cnf: The hard constraints.  The formula's variable pool is reused for
            the auxiliary variables of the objective-bound encodings.
        objective: The terms of the objective function ``F``.

    Example:
        >>> cnf = CNF()
        >>> a, b = cnf.new_var("a"), cnf.new_var("b")
        >>> cnf.add_clause([a, b])
        >>> opt = OptimizingSolver(cnf, [ObjectiveTerm(3, a), ObjectiveTerm(5, b)])
        >>> result = opt.minimize()
        >>> result.objective
        3
    """

    def __init__(self, cnf: CNF, objective: Sequence[ObjectiveTerm]):
        self.cnf = cnf
        self.objective = list(objective)

    # ------------------------------------------------------------------
    def _objective_terms(self) -> List[Tuple[int, Literal]]:
        return [(term.weight, term.literal) for term in self.objective]

    def _objective_value(self, model: Dict[int, bool]) -> int:
        return evaluate_pb(self._objective_terms(), model)

    def make_session(self) -> SolveSession:
        """A fresh persistent solving session for this instance.

        Sessions may be handed back to :meth:`minimize` (``session=...``) to
        keep learned clauses and bound encodings alive across calls — for
        example when the same instance is re-minimised under a tightened
        incumbent bound.
        """
        return SolveSession(self.cnf, self._objective_terms())

    # ------------------------------------------------------------------
    def minimize(
        self,
        strategy: str = DEFAULT_OPTIMIZER,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        upper_bound: Optional[int] = None,
        session: Optional[SolveSession] = None,
        initial_model: Optional[Dict[int, bool]] = None,
        initial_objective: Optional[int] = None,
    ) -> OptimizationResult:
        """Find a model of minimal objective value.

        Args:
            strategy: Registry name of the descent strategy (``"core"``,
                the default, ``"linear"``, ``"binary"`` or anything
                registered via :func:`register_optimizer`); all run on one
                incremental session.
            time_limit: Overall wall-clock budget in seconds.
            conflict_limit: Per-solver-call conflict budget.
            upper_bound: Known inclusive bound on the objective (for example
                from a heuristic solution).  The bound constrains the very
                first solve, so the search starts from the seeded bound
                instead of descending from an arbitrary first model.  A
                result with status ``"unsat"`` then means "no model with
                objective at most *upper_bound*" — the unseeded instance may
                still be satisfiable.
            session: A live session from :meth:`make_session` to solve on;
                learned clauses and bound encodings from earlier ``minimize``
                calls on it are reused.  A fresh session is built (and
                discarded) when omitted, which keeps repeated calls on the
                same instance fully independent.
            initial_model: A known feasible (possibly partial) assignment,
                used as the first incumbent: it seeds the solver's phases
                and counts as the first feasible solution, so the descent
                starts directly below its value.  Must be accompanied by
                *initial_objective* (partial assignments cannot be
                re-evaluated safely).  Ignored when it is worse than
                *upper_bound*.
            initial_objective: Objective value of *initial_model*.

        Returns:
            The :class:`OptimizationResult`; its objective never exceeds
            *upper_bound* when one was given.

        Raises:
            ValueError: On a negative bound, an unknown strategy name, or an
                initial model without its objective value (and vice versa).
        """
        if upper_bound is not None and upper_bound < 0:
            raise ValueError("upper_bound must be non-negative")
        if (initial_model is None) != (initial_objective is None):
            raise ValueError(
                "initial_model and initial_objective must be given together"
            )
        if initial_objective is not None and initial_objective < 0:
            raise ValueError("initial_objective must be non-negative")
        try:
            descent = OPTIMIZERS.create(strategy)
        except KeyError:
            raise ValueError(
                f"unknown optimisation strategy {strategy!r}; "
                f"available: {available_optimizers()}"
            ) from None
        run = _SessionRun(
            session if session is not None else self.make_session(),
            fresh=session is None,
        )
        incumbent_model: Optional[Dict[int, bool]] = None
        incumbent_objective: Optional[int] = None
        if initial_model is not None:
            if upper_bound is None or initial_objective <= upper_bound:
                incumbent_model = dict(initial_model)
                incumbent_objective = initial_objective
                run.session.seed_phases(initial_model)
        task = DescentTask(
            run=run,
            objective_value=self._objective_value,
            time_limit=time_limit,
            conflict_limit=conflict_limit,
            upper_bound=upper_bound,
            incumbent_model=incumbent_model,
            incumbent_objective=incumbent_objective,
        )
        if incumbent_objective is not None:
            task.counters["model_seeded"] = 1
        return descent.minimize(task)


__all__ = [
    "DEFAULT_OPTIMIZER",
    "ObjectiveTerm",
    "OptimizationResult",
    "OptimizingSolver",
    "OptimizerStrategy",
    "OptimizerRegistry",
    "OPTIMIZERS",
    "DescentTask",
    "register_optimizer",
    "available_optimizers",
    "optimizer_descriptions",
    "resolve_optimizer_name",
]

"""Minimisation of a weighted linear objective over a CNF formula.

This implements the "extended interpretation" of the satisfiability problem
from Definition 3 of the paper: besides a satisfying assignment of the hard
constraints, an assignment minimising ``F = sum(w_i * literal_i)`` is sought.

Two descents decide which objective bounds to probe, both on one
persistent :class:`~repro.sat.session.SolveSession`, so learned clauses,
variable activities and saved phases carry over from probe to probe:

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

Both descents return an :class:`OptimizationResult`; when a time or
conflict budget is exhausted the best model found so far is returned with
``is_optimal=False`` (this mirrors the paper's "close-to-minimal"
discussion).  A known feasible assignment can be handed in as an initial
incumbent (``minimize(initial_model=..., initial_objective=...)``): it
seeds the solver's phases and counts as the first feasible solution, so a
proven-optimal re-solve needs only the final UNSAT probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Literal
from repro.sat.session import SolveSession
from repro.sat.solver import SolverResult

#: The descent every SAT entry point uses unless told otherwise
#: (``SATMapper``, ``SplitSATMapper``, :meth:`OptimizingSolver.minimize`).
DEFAULT_OPTIMIZER = "core"

#: Descent name -> one-line description (printed by ``--list-optimizers``).
OPTIMIZERS: Dict[str, str] = {
    "core": (
        "core-guided (default): refute a known bound or incumbent first, "
        "else assume all objective terms off, relax exactly the literals of "
        "each UNSAT core (lower bound rises by whole cores), then bisect "
        "the remaining [lower, incumbent] gap"
    ),
    "linear": (
        "monotone descent: find a model, commit F <= best-1, repeat until "
        "UNSAT (bounds propagate at level 0; fastest per probe)"
    ),
}

#: Label cap for recorded cores: a first core over every objective selector
#: can hold hundreds of literals, and the labels travel inside persisted
#: result statistics.  The literal tuple itself is always complete.
MAX_CORE_LABELS = 12


def resolve_optimizer_name(name: str) -> str:
    """*name* itself when it names a descent (``core`` or ``linear``).

    Raises:
        ValueError: When the name is unknown (with the available names in
            the message, so CLI layers can surface it directly).
    """
    if name not in OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer strategy {name!r}; available: {list(OPTIMIZERS)}"
        )
    return name


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
            ``propagations``, ``fresh_solver``) plus descent counters:
            ``descent_iterations``
            (solver calls that produced a model), ``model_seeded`` (an
            initial incumbent was used), and for the core-guided descent
            ``cores_found`` / ``core_literals_relaxed`` /
            ``core_lower_bound`` (the lower bound proven by cores alone).
        final_core: Assumption literals of the last UNSAT probe (empty when
            the descent never solved under assumptions, e.g. pure
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


class _Run:
    """One ``minimize`` call on a (possibly reused) session.

    Holds the budgets, the incumbent and the counters; every solver call of
    a descent goes through :meth:`solve`, every model through
    :meth:`take_model`, and every return through :meth:`finish`.
    """

    def __init__(
        self,
        session: SolveSession,
        fresh: bool,
        time_limit: Optional[float],
        conflict_limit: Optional[int],
    ):
        self.session = session
        self.fresh = fresh
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        self.start = time.monotonic()
        self._start_conflicts = session.conflicts
        self._start_propagations = session.propagations
        self._start_stats = dict(session.statistics)
        self.iterations = 0
        self.counters: Dict[str, int] = {}
        self.best_model: Dict[int, bool] = {}
        self.best_value: Optional[int] = None
        self.final_core: Tuple[int, ...] = ()
        self.core_labels: Tuple[str, ...] = ()

    def solve(
        self,
        bound: Optional[int] = None,
        assumptions: Sequence[Literal] = (),
        commit: bool = False,
    ) -> SolverResult:
        """One solver call under ``F <= bound`` (assumed unless *commit*)."""
        self.iterations += 1
        remaining = None
        if self.time_limit is not None:
            elapsed = time.monotonic() - self.start
            remaining = max(0.001, self.time_limit - elapsed)
        if commit:
            outcome = self.session.solve_with_bound(
                bound,
                conflict_limit=self.conflict_limit,
                time_limit=remaining,
                commit=True,
            )
        else:
            outcome = self.session.solve_with_assumptions(
                assumptions,
                bound=bound,
                conflict_limit=self.conflict_limit,
                time_limit=remaining,
            )
        if outcome is SolverResult.UNSAT:
            self._record_core()
        return outcome

    def _record_core(self) -> None:
        literals = self.session.last_core()
        if not literals:
            return
        labels = [
            self.session.describe_literal(literal)
            for literal in literals[:MAX_CORE_LABELS]
        ]
        if len(literals) > MAX_CORE_LABELS:
            labels.append(
                f"... and {len(literals) - MAX_CORE_LABELS} more core literals"
            )
        self.final_core = tuple(literals)
        self.core_labels = tuple(labels)

    def take_model(self) -> None:
        """Count the last solve's model and keep it when it beats the incumbent."""
        model = self.session.model()
        value = self.session.objective_value(model)
        self.counters["descent_iterations"] += 1
        if self.best_value is None or value < self.best_value:
            self.best_model, self.best_value = model, value

    def finish(self, proven: bool) -> OptimizationResult:
        """The result: ``proven`` means the search space below is exhausted."""
        if self.best_value is None:
            status = "unsat" if proven else "unknown"
        else:
            status = "optimal" if proven else "satisfiable"
        statistics = {
            key: self.session.statistics[key] - self._start_stats.get(key, 0)
            for key in self.session.statistics
        }
        statistics["propagations"] = (
            self.session.propagations - self._start_propagations
        )
        statistics["learned_clauses_retained"] = self.session.learned_clauses
        statistics["fresh_solver"] = int(self.fresh)
        statistics.update(self.counters)
        return OptimizationResult(
            status=status,
            model=self.best_model,
            objective=self.best_value,
            iterations=self.iterations,
            conflicts=self.session.conflicts - self._start_conflicts,
            elapsed_seconds=time.monotonic() - self.start,
            statistics=statistics,
            final_core=self.final_core,
            core_labels=self.core_labels,
        )


def _linear(run: _Run, upper_bound: Optional[int]) -> OptimizationResult:
    """Monotone descent with permanently committed bounds."""
    bound = upper_bound
    if run.best_value is not None:
        if run.best_value == 0:
            return run.finish(True)
        bound = run.best_value - 1 if bound is None else min(bound, run.best_value - 1)
    while True:
        # The descent only ever tightens, so bounds are committed as
        # permanent unit clauses: they propagate at level 0 (as strongly as
        # a re-encoded formula) while the ladder is still shared.
        outcome = run.solve(bound, commit=True)
        if outcome is not SolverResult.SAT:
            return run.finish(outcome is SolverResult.UNSAT)
        run.take_model()
        if run.best_value == 0:
            return run.finish(True)
        # Tighten: require an objective strictly below the incumbent.
        bound = run.best_value - 1


def _bisect(run: _Run, low: int) -> OptimizationResult:
    """Close the ``[low, best]`` gap by bisection on assumed bounds."""
    high = run.best_value
    while low < high:
        middle = (low + high) // 2
        outcome = run.solve(middle)
        if outcome is SolverResult.UNKNOWN:
            return run.finish(False)
        if outcome is SolverResult.SAT:
            run.take_model()
            high = run.best_value
        else:
            low = middle + 1
    return run.finish(True)


def _refute_first(
    run: _Run, upper_bound: Optional[int]
) -> Optional[OptimizationResult]:
    """Probe ``F <= best - 1`` once when the solve is bounded or seeded.

    Such a solve usually starts at (or next to) the optimum, where this one
    UNSAT probe is the proof.  The bound is assumed, never committed.  A
    bounded solve without an incumbent first fetches a model within the
    bound.  Returns the run's result when it ends here (no model, budget
    spent, an incumbent of cost 0, or the probe decided), else ``None``.
    """
    if upper_bound is None and run.best_value is None:
        return None
    if run.best_value is None:
        outcome = run.solve(upper_bound)
        if outcome is not SolverResult.SAT:
            return run.finish(outcome is SolverResult.UNSAT)
        run.take_model()
    if run.best_value == 0:
        return run.finish(True)
    outcome = run.solve(run.best_value - 1)
    if outcome is not SolverResult.SAT:
        return run.finish(outcome is SolverResult.UNSAT)
    run.take_model()
    return None


def _core(run: _Run, upper_bound: Optional[int]) -> OptimizationResult:
    """Refute first when bounded or seeded, then disjoint cores, then bisection."""
    counters = run.counters
    counters.update(cores_found=0, core_literals_relaxed=0, core_lower_bound=0)
    done = _refute_first(run, upper_bound)
    if done is not None:
        return done

    # Disjoint-core lower bounding.  Assume every remaining term off; every
    # UNSAT answer yields a core over those selectors, the core's literals
    # are relaxed (removed from the assumption set) and the proven lower
    # bound rises by the core's cheapest weight.  A literal shared by
    # several terms is one selector carrying their summed weight: assuming
    # it off suppresses all of them at once.
    selectors: Dict[int, int] = {}
    for weight, selector in run.session.term_selectors():
        selectors[selector] = selectors.get(selector, 0) + weight
    while run.best_value is None or counters["core_lower_bound"] < run.best_value:
        if not selectors and run.best_value is not None:
            return _bisect(run, counters["core_lower_bound"])
        # With every selector relaxed (an empty objective, or merged
        # duplicate selectors) this is a plain solve for a first model.
        outcome = run.solve(assumptions=list(selectors))
        if outcome is SolverResult.UNKNOWN:
            return run.finish(False)
        if outcome is SolverResult.SAT:
            run.take_model()
            return _bisect(run, counters["core_lower_bound"])
        core = run.session.last_core()
        if not core:
            # The hard constraints alone are inconsistent.
            run.best_model, run.best_value = {}, None
            return run.finish(True)
        counters["core_lower_bound"] += min(selectors[literal] for literal in core)
        counters["cores_found"] += 1
        counters["core_literals_relaxed"] += len(core)
        for literal in core:
            selectors.pop(literal, None)
    # The incumbent meets the proven lower bound: optimal without ever
    # probing the bound ladder.
    return run.finish(True)


_DESCENTS: Dict[str, Callable[[_Run, Optional[int]], OptimizationResult]] = {
    "core": _core,
    "linear": _linear,
}


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

    def make_session(self) -> SolveSession:
        """A fresh persistent solving session for this instance.

        Sessions may be handed back to :meth:`minimize` (``session=...``) to
        keep learned clauses and bound encodings alive across calls — for
        example when the same instance is re-minimised under a tightened
        incumbent bound.
        """
        return SolveSession(
            self.cnf, [(term.weight, term.literal) for term in self.objective]
        )

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
            strategy: The descent: ``"core"`` (the default) or
                ``"linear"``; both run on one incremental session.
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
        descent = _DESCENTS[resolve_optimizer_name(strategy)]
        run = _Run(
            session if session is not None else self.make_session(),
            session is None,
            time_limit,
            conflict_limit,
        )
        if initial_model is not None:
            if upper_bound is None or initial_objective <= upper_bound:
                run.best_model = dict(initial_model)
                run.best_value = initial_objective
                run.counters["model_seeded"] = 1
                run.session.seed_phases(initial_model)
        run.counters["descent_iterations"] = 0
        return descent(run, upper_bound)


__all__ = [
    "DEFAULT_OPTIMIZER",
    "OPTIMIZERS",
    "ObjectiveTerm",
    "OptimizationResult",
    "OptimizingSolver",
    "resolve_optimizer_name",
]

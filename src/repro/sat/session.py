"""Persistent, assumption-based solving sessions for objective descent.

A :class:`SolveSession` owns one live :class:`~repro.sat.solver.CDCLSolver`
loaded with a CNF formula and minimises a weighted objective over it by
*assuming* objective bounds instead of cloning the formula:

* The constraint ``F <= b`` is encoded as a BDD ladder: with the terms
  sorted heaviest first, node ``(i, c)`` states "the weighted sum of terms
  ``i..`` is at most ``c``".  Its low edge ``node -> (i+1, c)`` holds
  whatever term ``i`` is (terms are non-negative) and its high edge
  ``node & term_i -> (i+1, c - w_i)`` charges the term.  This two-clause
  encoding is generalized arc consistent (Abío, Nieuwenhuis, Oliveras,
  Rodríguez-Carbonell, Mayer-Eichberger, "A New Look at BDDs for
  Pseudo-Boolean Constraints", JAIR 2012): once the root holds, unit
  propagation falsifies every term heavier than the budget left.  It is
  polynomial in ``len(terms) * b``, and every clause contains a negated
  node, so it never constrains the formula's own variables.  No unit
  clause asserts the root: the root literal is handed to the solver as an
  **assumption**, so the bound holds for one ``solve`` call and evaporates
  afterwards — bounds can tighten (objective descent) or move in both
  directions (bisection) on the same solver.
  This ladder is the package's only objective-bound encoding.
* Ladder nodes are cached per session and shared between bounds: tightening
  from ``b`` to ``b - 1`` only adds the nodes that differ, everything
  reachable from both roots is reused.
* Learned clauses, variable activities and saved phases all survive across
  calls because the solver itself survives; nothing learned while a bound
  was assumed has to be thrown away (the assumption enters conflict
  analysis as a pseudo-decision, never as an antecedent).
* Arbitrary extra assumptions can ride along
  (:meth:`SolveSession.solve_with_assumptions`), and after an UNSAT answer
  the failing assumption subset is available as an **UNSAT core**
  (:meth:`SolveSession.last_core`) — this is what the core-guided
  descent and the ``--explain`` CLI flag are built on.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Literal
from repro.sat.solver import CDCLSolver, SolverResult


def evaluate_pb(terms: Sequence[Tuple[int, Literal]], model: Dict[int, bool]) -> int:
    """Evaluate ``sum(weight_i * [literal_i is true])`` under *model*."""
    total = 0
    for weight, literal in terms:
        value = model.get(abs(literal), False)
        if literal < 0:
            value = not value
        if value:
            total += weight
    return total


class SolveSession:
    """One incremental solver plus a reusable objective-bound ladder.

    Args:
        cnf: Hard constraints; loaded into a fresh solver.  The ladder's
            auxiliary variables are numbered above the formula's variables
            by the session itself (the formula and its pool are never
            mutated).
        objective: ``(weight, literal)`` terms of the objective ``F``.

    Example:
        >>> session = SolveSession(cnf, [(3, a), (5, b)])
        >>> session.solve_with_bound(4)
        <SolverResult.SAT: 'sat'>
        >>> session.objective_value(session.model())
        3
        >>> session.solve_with_bound(2)  # same solver, tighter assumed bound
        <SolverResult.UNSAT: 'unsat'>
        >>> session.solve_with_bound(4)  # not poisoned; bound 4 still works
        <SolverResult.SAT: 'sat'>
    """

    def __init__(self, cnf: CNF, objective: Sequence[Tuple[int, Literal]]):
        self._pool = cnf.pool
        # Variables at or below this index belong to the formula itself;
        # everything above is session-local (bound-ladder nodes) and never
        # crosses session boundaries via export_learned().  Ladder nodes are
        # numbered here, not in the pool, so a second session over the same
        # formula starts from the same variable count as the first.
        self._formula_var_limit = cnf.num_vars
        self._next_var = cnf.num_vars + 1
        self.solver = CDCLSolver()
        self.solver.add_cnf(cnf)
        self._terms: List[Tuple[int, Literal]] = []
        for weight, literal in objective:
            if weight < 0:
                raise ValueError("objective weights must be non-negative")
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            self._terms.append((int(weight), literal))
        # Heaviest first: the ladder stays small and propagates early.
        # Zero-weight terms never influence the bound and are skipped.
        ladder = [term for term in self._terms if term[0] > 0]
        ladder.sort(key=lambda term: -term[0])
        self._ladder_terms = ladder
        suffix = [0] * (len(ladder) + 1)
        for index in range(len(ladder) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + ladder[index][0]
        self._suffix_totals = suffix
        self._nodes: Dict[Tuple[int, int], int] = {}
        self._node_info: Dict[int, Tuple[int, int]] = {}
        self._term_by_var: Dict[int, Tuple[int, Literal]] = {
            abs(literal): (weight, literal) for weight, literal in ladder
        }
        self._committed_bound: Optional[int] = None
        self.statistics: Dict[str, int] = {
            "solve_calls": 0,
            "assumption_solves": 0,
            "committed_bounds": 0,
            "bound_nodes_created": 0,
            "bound_nodes_reused": 0,
            "bound_clauses_added": 0,
            "phase_seeds": 0,
            "clauses_exported": 0,
            "clauses_imported": 0,
            "import_clauses_dropped": 0,
        }

    # ------------------------------------------------------------------
    def interrupt(self) -> None:
        """Cooperatively stop the session's solver (see ``CDCLSolver.interrupt``).

        Safe from another thread; the running (and every later) solve call
        answers UNKNOWN until :meth:`clear_interrupt`, which is what makes
        an optimiser descent loop on this session terminate promptly.
        """
        self.solver.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the session's solver after :meth:`interrupt`."""
        self.solver.clear_interrupt()

    @property
    def interrupted(self) -> bool:
        """Whether an interrupt request is pending on the session's solver."""
        return self.solver.interrupted

    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> int:
        """Sum of all positive objective weights (the trivial upper bound)."""
        return self._suffix_totals[0] if self._suffix_totals else 0

    @property
    def conflicts(self) -> int:
        """Cumulative solver conflicts over the session's lifetime."""
        return self.solver.statistics["conflicts"]

    @property
    def propagations(self) -> int:
        """Cumulative unit propagations over the session's lifetime."""
        return self.solver.statistics["propagations"]

    @property
    def learned_clauses(self) -> int:
        """Learned clauses currently retained by the live solver."""
        return self.solver.num_learned

    @property
    def committed_bound(self) -> Optional[int]:
        """The tightest permanently committed bound (``None`` when none)."""
        return self._committed_bound

    @property
    def positive_terms(self) -> List[Tuple[int, Literal]]:
        """The positive-weight objective terms, heaviest first (a copy)."""
        return list(self._ladder_terms)

    def term_selectors(self) -> List[Tuple[int, Literal]]:
        """``(weight, -literal)`` per positive-weight term.

        Assuming ``-literal`` forces the term to contribute nothing to the
        objective; these are the assumption literals the core-guided
        strategy hands to :meth:`solve_with_assumptions`.
        """
        return [(weight, -literal) for weight, literal in self._ladder_terms]

    # ------------------------------------------------------------------
    def _add(self, literals: List[int]) -> None:
        self.solver.add_clause(literals)
        self.statistics["bound_clauses_added"] += 1

    def _build(self, index: int, budget: int) -> Optional[int]:
        """Ladder node literal for "sum of terms[index:] <= budget".

        Returns ``None`` when the node is trivially true.  Nodes are cached
        for the session's lifetime, so overlapping bounds share clauses.
        A node's clauses are ``[-node, low]`` and ``[-node, -term, high]``
        (``[-node, -term]`` when the term alone exceeds the budget); a
        trivially true child needs no clause.

        The construction walks an explicit stack instead of recursing: the
        natural recursion is one frame per objective term, which overflows
        the interpreter's recursion limit on instances with thousands of
        terms.  The walk visits nodes in exactly the recursive order (node
        created, low subtree, low clause, high subtree, high clause), so
        variable numbering, clause order and the bound-node statistics are
        identical to the recursive formulation.
        """
        if self._suffix_totals[index] <= budget:
            return None
        cached = self._nodes.get((index, budget))
        if cached is not None:
            self.statistics["bound_nodes_reused"] += 1
            return cached
        # Stack frames: (index, budget, phase) with phase 0 = create the
        # node and descend into the low child, 1 = emit the low clause and
        # descend into the high child, 2 = emit the high clause.
        stack: List[Tuple[int, int, int]] = [(index, budget, 0)]
        while stack:
            idx, bgt, phase = stack.pop()
            if phase == 0:
                if self._suffix_totals[idx] <= bgt:
                    continue  # trivially true: no node, no clause
                if (idx, bgt) in self._nodes:
                    self.statistics["bound_nodes_reused"] += 1
                    continue
                node = self._next_var
                self._next_var += 1
                self._nodes[(idx, bgt)] = node
                self._node_info[node] = (idx, bgt)
                self.statistics["bound_nodes_created"] += 1
                stack.append((idx, bgt, 1))
                # Low child: the budget holds for the rest whatever the literal.
                stack.append((idx + 1, bgt, 0))
            elif phase == 1:
                node = self._nodes[(idx, bgt)]
                weight, literal = self._ladder_terms[idx]
                low = self._nodes.get((idx + 1, bgt))
                if self._suffix_totals[idx + 1] > bgt and low is not None:
                    self._add([-node, low])
                # Literal true: the budget shrinks by the term's weight.
                if weight > bgt:
                    self._add([-node, -literal])
                else:
                    stack.append((idx, bgt, 2))
                    stack.append((idx + 1, bgt - weight, 0))
            else:
                node = self._nodes[(idx, bgt)]
                weight, literal = self._ladder_terms[idx]
                high = self._nodes.get((idx + 1, bgt - weight))
                if (
                    self._suffix_totals[idx + 1] > bgt - weight
                    and high is not None
                ):
                    self._add([-node, -literal, high])
        return self._nodes[(index, budget)]

    def selector(self, bound: int) -> Optional[int]:
        """The literal that, when assumed, asserts ``F <= bound``.

        Returns ``None`` when the bound is trivially satisfied by every
        assignment (no assumption needed).

        Raises:
            ValueError: On a negative bound.
        """
        if bound < 0:
            raise ValueError("bound must be non-negative")
        return self._build(0, bound)

    # ------------------------------------------------------------------
    def solve_with_bound(
        self,
        bound: Optional[int] = None,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        commit: bool = False,
    ) -> SolverResult:
        """One solver call, optionally under the bound ``F <= bound``.

        By default the bound is *assumed*: an
        :attr:`~repro.sat.solver.SolverResult.UNSAT` outcome then means "no
        model with objective at most *bound*" and the session remains usable
        for other (even looser) bounds afterwards.

        With ``commit=True`` the bound's selector is asserted as a permanent
        unit clause instead.  That makes the bound propagate at decision
        level 0 (as strongly as a re-encoded formula would) and is meant for
        monotonically tightening descents: committed bounds are permanent,
        so a later looser commit is a no-op (the tighter constraint already
        implies it — the session's effective bound is the minimum ever
        committed, see :attr:`committed_bound`) and an UNSAT answer under a
        committed bound is final for the session.
        """
        assumptions: List[int] = []
        if bound is not None:
            if commit:
                selector = self.selector(bound)
                if self._committed_bound is None or bound < self._committed_bound:
                    self._committed_bound = bound
                    if selector is not None:
                        # A committed bound is not implied by the formula, so
                        # clauses learned after it must never be exported.
                        self.solver.freeze_exports()
                        self.solver.add_clause([selector])
                        self.statistics["committed_bounds"] += 1
            else:
                selector = self.selector(bound)
                if selector is not None:
                    assumptions.append(selector)
        return self._solve(assumptions, conflict_limit, time_limit)

    def solve_with_assumptions(
        self,
        assumptions: Sequence[Literal],
        bound: Optional[int] = None,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolverResult:
        """One solver call under arbitrary assumption literals.

        Args:
            assumptions: Literals assumed true for this call only (for
                example the term selectors of the core-guided strategy).
            bound: Optional objective bound ``F <= bound``, *assumed* via
                its ladder selector alongside the other assumptions.
            conflict_limit: Per-call conflict budget.
            time_limit: Per-call wall-clock budget in seconds.

        After an :attr:`~repro.sat.solver.SolverResult.UNSAT` answer,
        :meth:`last_core` names the failing assumption subset.
        """
        literals = list(assumptions)
        if bound is not None:
            selector = self.selector(bound)
            if selector is not None:
                literals.append(selector)
        return self._solve(literals, conflict_limit, time_limit)

    def _solve(
        self,
        assumptions: List[int],
        conflict_limit: Optional[int],
        time_limit: Optional[float],
    ) -> SolverResult:
        self.statistics["solve_calls"] += 1
        if assumptions:
            self.statistics["assumption_solves"] += 1
        return self.solver.solve(
            conflict_limit=conflict_limit,
            time_limit=time_limit,
            assumptions=assumptions,
        )

    # ------------------------------------------------------------------
    def last_core(self) -> Tuple[int, ...]:
        """Failing assumption subset of the last solve (see ``CDCLSolver.last_core``)."""
        return self.solver.last_core()

    def seed_phases(self, assignment: Dict[int, bool]) -> None:
        """Install a (partial) assignment as the solver's saved phases.

        Used for model warm starts: when *assignment* comes from a known
        feasible schedule, the next search is steered toward it.  Purely a
        search hint — never affects which answers are possible.
        """
        self.solver.seed_phases(assignment)
        self.statistics["phase_seeds"] += 1

    def describe_literal(self, literal: Literal) -> str:
        """Human-readable meaning of *literal* within this session.

        Bound-ladder nodes read as the partial-sum constraint they encode;
        objective-term literals carry their weight and pool name; everything
        else falls back to the variable pool's name.
        """
        var = abs(literal)
        negated = literal < 0
        info = self._node_info.get(var)
        if info is not None:
            index, budget = info
            label = (
                f"bound ladder: objective terms[{index}:] "
                f"(weight {self._suffix_totals[index]}) <= {budget}"
            )
            return f"NOT ({label})" if negated else label
        term = self._term_by_var.get(var)
        if term is not None:
            weight, term_literal = term
            name = self._pool.name(var)
            # The selector -term_literal reads as "term off" (contributes 0).
            off = (literal == -term_literal)
            state = "kept off (contributes 0)" if off else "active (contributes weight)"
            return f"objective term {name} (weight {weight}), {state}"
        return self._pool.describe_literal(literal)

    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[Literal]) -> None:
        """Add a permanent clause to the live solver (between solves).

        The clause is treated as a caller-asserted *strengthening* (not
        necessarily implied by the original formula), so learned-clause
        exports are frozen at this point — see ``CDCLSolver.freeze_exports``.
        """
        self.solver.freeze_exports()
        self.solver.add_clause(literals)

    def export_learned(
        self,
        max_size: Optional[int] = None,
        var_ok: Optional[Callable[[int], bool]] = None,
    ) -> List[Tuple[int, ...]]:
        """Learned clauses of the live solver that are safe to share.

        Bound-ladder variables are session-local and always excluded; pass
        an additional *var_ok* predicate to restrict the export to layers
        shared with the import target (for the mapping encodings: the x and
        spot blocks, see :mod:`repro.exact.sweep`).  Clauses learned after a
        committed bound are excluded automatically (they may depend on the
        commit, see :meth:`solve_with_bound`).
        """
        limit = self._formula_var_limit
        if var_ok is None:
            allowed = lambda var: var <= limit  # noqa: E731
        else:
            allowed = lambda var: var <= limit and var_ok(var)  # noqa: E731
        exported = self.solver.export_learned(max_size=max_size, var_ok=allowed)
        self.statistics["clauses_exported"] += len(exported)
        return exported

    def import_clauses(
        self,
        clauses: Iterable[Sequence[Literal]],
        remap: Optional[Mapping[int, int]] = None,
    ) -> int:
        """Inject externally learned clauses into the live solver.

        Args:
            clauses: Clause literal tuples (in the *source* instance's
                variable numbering when *remap* is given).
            remap: Source-variable to target-variable translation table; a
                clause mentioning any unmapped variable is dropped (counted
                as ``import_clauses_dropped``).  ``None`` means the clauses
                already use this session's numbering.

        The caller is responsible for the (remapped) clauses being implied
        by this session's formula; see
        :func:`repro.exact.sweep.clause_is_implied` for the debug check.

        Returns:
            The number of clauses actually added (after dedupe).
        """
        ready: List[Tuple[int, ...]] = []
        for literals in clauses:
            if remap is None:
                ready.append(tuple(literals))
                continue
            mapped: List[int] = []
            ok = True
            for literal in literals:
                target = remap.get(abs(literal))
                if target is None:
                    ok = False
                    break
                mapped.append(target if literal > 0 else -target)
            if ok:
                ready.append(tuple(mapped))
            else:
                self.statistics["import_clauses_dropped"] += 1
        added = self.solver.import_clauses(ready)
        self.statistics["clauses_imported"] += added
        return added

    def model(self) -> Dict[int, bool]:
        """The model of the last successful solve (see ``CDCLSolver.model``)."""
        return self.solver.model()

    def objective_value(self, model: Dict[int, bool]) -> int:
        """Evaluate the objective ``F`` under *model*."""
        return evaluate_pb(self._terms, model)


__all__ = ["SolveSession", "SolverResult", "evaluate_pb"]

"""Tests for UNSAT-core extraction: solver, session and optimizer reporting."""

import pytest

from repro.sat.cnf import CNF
from repro.sat.optimize import ObjectiveTerm, OptimizingSolver
from repro.sat.session import SolveSession
from repro.sat.solver import CDCLSolver, SolverResult


def _pigeonhole_solver():
    """Three assumptions that cannot all hold: at-most-one of 1, 2, 3."""
    solver = CDCLSolver()
    solver.add_clause([-1, -2])
    solver.add_clause([-1, -3])
    solver.add_clause([-2, -3])
    return solver


class TestSolverCores:
    def test_core_is_subset_of_assumptions(self):
        solver = _pigeonhole_solver()
        assumptions = [1, 2, 3]
        assert solver.solve(assumptions=assumptions) is SolverResult.UNSAT
        core = solver.last_core()
        assert core
        assert set(core) <= set(assumptions)

    def test_reasserting_core_alone_is_still_unsat(self):
        solver = _pigeonhole_solver()
        assert solver.solve(assumptions=[1, 2, 3]) is SolverResult.UNSAT
        core = list(solver.last_core())
        assert solver.solve(assumptions=core) is SolverResult.UNSAT
        # And the new core is a subset of the re-asserted one.
        assert set(solver.last_core()) <= set(core)

    def test_core_empty_on_sat(self):
        solver = _pigeonhole_solver()
        assert solver.solve(assumptions=[1]) is SolverResult.SAT
        assert solver.last_core() == ()

    def test_core_empty_without_assumptions(self):
        solver = _pigeonhole_solver()
        assert solver.solve() is SolverResult.SAT
        assert solver.last_core() == ()

    def test_core_empty_on_hard_unsat(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve(assumptions=[2]) is SolverResult.UNSAT
        # The formula alone is inconsistent: no assumption is to blame.
        assert solver.last_core() == ()

    def test_core_excludes_irrelevant_assumptions(self):
        solver = CDCLSolver()
        solver.add_clause([-1, -2])  # 1 and 2 conflict; 5, 6 are free
        assert (
            solver.solve(assumptions=[5, 6, 1, 2]) is SolverResult.UNSAT
        )
        core = set(solver.last_core())
        assert core == {1, 2}

    def test_core_survives_conflicting_assumption_pair(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[3, -3]) is SolverResult.UNSAT
        core = set(solver.last_core())
        assert core == {3, -3}
        assert solver.solve(assumptions=[3]) is SolverResult.SAT

    def test_core_via_propagation_chain(self):
        # 1 -> 2 -> 3 and assuming -3 must blame the assumption 1.
        solver = CDCLSolver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve(assumptions=[1, -3]) is SolverResult.UNSAT
        assert set(solver.last_core()) == {1, -3}

    def test_solver_not_poisoned_after_core(self):
        solver = _pigeonhole_solver()
        assert solver.solve(assumptions=[1, 2]) is SolverResult.UNSAT
        assert solver.last_core()
        assert solver.solve(assumptions=[2]) is SolverResult.SAT
        assert solver.value(2) is True

    def test_phase_seeding_steers_model(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])  # either works
        solver.seed_phases({1: False, 2: True})
        assert solver.solve() is SolverResult.SAT
        assert solver.model()[2] is True

    def test_phase_seeding_rejects_nonpositive_vars(self):
        with pytest.raises(ValueError):
            CDCLSolver().seed_phases({-1: True})


class TestSessionCores:
    def _session(self):
        cnf = CNF()
        a, b = cnf.new_var("a"), cnf.new_var("b")
        cnf.add_clause([a, b])
        return SolveSession(cnf, [(3, a), (5, b)]), a, b

    def test_solve_with_assumptions_and_last_core(self):
        session, a, b = self._session()
        # Both terms off is impossible (clause forces one of them).
        outcome = session.solve_with_assumptions([-a, -b])
        assert outcome is SolverResult.UNSAT
        assert set(session.last_core()) <= {-a, -b}
        assert session.last_core()
        # The session stays usable.
        assert session.solve_with_assumptions([-a]) is SolverResult.SAT

    def test_term_selectors_match_objective(self):
        session, a, b = self._session()
        selectors = dict(
            (literal, weight) for weight, literal in session.term_selectors()
        )
        assert selectors == {-b: 5, -a: 3}

    def test_assumptions_combine_with_ladder_bound(self):
        session, a, b = self._session()
        # Forbid the cheap term and bound the objective below the dear one.
        outcome = session.solve_with_assumptions([-a], bound=4)
        assert outcome is SolverResult.UNSAT
        core = session.last_core()
        assert core
        labels = [session.describe_literal(literal) for literal in core]
        assert any("bound ladder" in label or "objective term" in label
                   for label in labels)

    def test_describe_literal_falls_back_to_pool_names(self):
        session, a, b = self._session()
        assert "a" in session.describe_literal(a)
        assert session.describe_literal(-a).startswith("objective term")

    def test_core_from_session_labels(self):
        session, a, b = self._session()
        assert session.solve_with_assumptions([-a, -b]) is SolverResult.UNSAT
        core = session.last_core()
        assert core
        labels = [session.describe_literal(literal) for literal in core]
        assert all("objective term" in label for label in labels)

    def test_core_from_session_empty_after_sat(self):
        session, a, b = self._session()
        assert session.solve_with_bound(None) is SolverResult.SAT
        assert session.last_core() == ()


class TestOptimizerCoreReporting:
    def test_core_strategy_records_core_and_counters(self):
        cnf = CNF()
        a, b = cnf.new_var("a"), cnf.new_var("b")
        cnf.add_clause([a, b])
        result = OptimizingSolver(
            cnf, [ObjectiveTerm(3, a), ObjectiveTerm(5, b)]
        ).minimize(strategy="core")
        assert result.objective == 3
        assert result.is_optimal
        assert result.statistics["cores_found"] >= 1
        assert result.statistics["core_lower_bound"] >= 3
        assert result.final_core

    def test_long_core_labels_are_capped(self):
        cnf = CNF()
        literals = [cnf.new_var(f"t{index}") for index in range(20)]
        cnf.add_clause(literals)
        result = OptimizingSolver(
            cnf, [ObjectiveTerm(1, literal) for literal in literals]
        ).minimize(strategy="core")
        assert result.objective == 1
        # The first core holds all 20 selectors; 12 are labelled, the
        # tail is summarised, and the literal tuple stays complete.
        assert len(result.final_core) == 20
        assert len(result.core_labels) == 13
        assert result.core_labels[-1] == "... and 8 more core literals"

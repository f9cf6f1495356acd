"""Tests for the incremental SolveSession and the session-based optimiser."""

import itertools
import random

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact.encoding import build_encoding
from repro.sat.cnf import CNF
from repro.sat.optimize import ObjectiveTerm, OptimizingSolver
from repro.sat.session import SolveSession
from repro.sat.solver import SolverResult


def _weighted_instance():
    """CNF ``(a | b)`` with objective ``3a + 5b`` — minimum 3."""
    cnf = CNF()
    a, b = cnf.new_var("a"), cnf.new_var("b")
    cnf.add_clause([a, b])
    return cnf, [ObjectiveTerm(3, a), ObjectiveTerm(5, b)]


def _random_instance(seed):
    """A random CNF + objective whose minimum is computable by enumeration."""
    rng = random.Random(seed)
    num_vars = rng.randint(3, 7)
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(rng.randint(3, 12)):
        variables = rng.sample(range(1, num_vars + 1), min(3, num_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    objective = [
        ObjectiveTerm(rng.randint(0, 6), v if rng.random() < 0.7 else -v)
        for v in range(1, num_vars + 1)
    ]
    return cnf, objective, num_vars


def _brute_force_minimum(cnf, objective, num_vars):
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if not cnf.evaluate(assignment):
            continue
        value = 0
        for term in objective:
            lit_true = assignment[abs(term.literal)]
            if term.literal < 0:
                lit_true = not lit_true
            if lit_true:
                value += term.weight
        if best is None or value < best:
            best = value
    return best


class TestSolveSession:
    def test_bounds_move_in_both_directions(self):
        cnf, objective = _weighted_instance()
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        assert session.solve_with_bound(4) is SolverResult.SAT
        assert session.objective_value(session.model()) == 3
        assert session.solve_with_bound(2) is SolverResult.UNSAT
        # An assumed UNSAT bound must not poison a looser probe.
        assert session.solve_with_bound(4) is SolverResult.SAT
        assert session.solve_with_bound(None) is SolverResult.SAT

    def test_trivial_bound_needs_no_selector(self):
        cnf, objective = _weighted_instance()
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        assert session.selector(8) is None  # total weight is 8
        assert session.solve_with_bound(100) is SolverResult.SAT

    def test_negative_bound_rejected(self):
        cnf, objective = _weighted_instance()
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        with pytest.raises(ValueError):
            session.selector(-1)

    def test_ladder_nodes_are_shared_between_bounds(self):
        cnf, objective, _ = _random_instance(7)
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        session.selector(6)
        created_first = session.statistics["bound_nodes_created"]
        session.selector(5)
        assert session.statistics["bound_nodes_reused"] > 0
        # Tightening by one reuses most of the ladder.
        created_second = session.statistics["bound_nodes_created"] - created_first
        assert created_second <= created_first

    def test_committed_bounds_only_ever_tighten(self):
        cnf, objective = _weighted_instance()
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        assert session.solve_with_bound(4, commit=True) is SolverResult.SAT
        assert session.committed_bound == 4
        # A looser commit is a no-op: the effective bound stays at 4.
        assert session.solve_with_bound(6, commit=True) is SolverResult.SAT
        assert session.committed_bound == 4
        assert session.objective_value(session.model()) <= 4
        assert session.solve_with_bound(2, commit=True) is SolverResult.UNSAT
        assert session.committed_bound == 2

    def test_caller_cnf_is_never_mutated(self):
        cnf, objective = _weighted_instance()
        clauses_before = cnf.num_clauses
        session = SolveSession(cnf, [(t.weight, t.literal) for t in objective])
        session.solve_with_bound(3)
        session.solve_with_bound(2, commit=False)
        assert cnf.num_clauses == clauses_before


class TestOptimizerOnSession:
    @pytest.mark.parametrize("strategy", ["linear", "core"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_minimum(self, strategy, seed):
        cnf, objective, num_vars = _random_instance(seed)
        expected = _brute_force_minimum(cnf, objective, num_vars)
        result = OptimizingSolver(cnf, objective).minimize(strategy=strategy)
        if expected is None:
            assert result.status == "unsat"
        else:
            assert result.status == "optimal"
            assert result.objective == expected

    def test_core_uses_one_solver_for_all_probes(self):
        cnf, objective, _ = _random_instance(3)
        result = OptimizingSolver(cnf, objective).minimize(strategy="core")
        assert result.statistics["fresh_solver"] == 1  # one per minimize, total
        assert result.statistics["solve_calls"] == result.iterations

    def test_linear_reports_session_statistics(self):
        cnf, objective = _weighted_instance()
        result = OptimizingSolver(cnf, objective).minimize()
        assert result.status == "optimal"
        assert result.statistics["solve_calls"] == result.iterations
        assert "learned_clauses_retained" in result.statistics
        assert "bound_nodes_created" in result.statistics

    def test_core_session_reuse_across_minimize_calls(self):
        cnf, objective, num_vars = _random_instance(5)
        expected = _brute_force_minimum(cnf, objective, num_vars)
        if expected is None:
            pytest.skip("instance is unsatisfiable for this seed")
        optimizer = OptimizingSolver(cnf, objective)
        session = optimizer.make_session()
        first = optimizer.minimize(strategy="core", session=session)
        assert first.objective == expected
        # Core and bisection probes are assumptions only, so the session
        # stays fully reusable: re-minimising with the optimum as a seed
        # agrees and runs on the same (already warmed) solver.
        second = optimizer.minimize(
            strategy="core", session=session, upper_bound=expected
        )
        assert second.status == "optimal"
        assert second.objective == expected
        assert second.statistics["fresh_solver"] == 0

    def test_linear_session_reuse_serves_tightened_bounds(self):
        cnf, objective, num_vars = _random_instance(5)
        expected = _brute_force_minimum(cnf, objective, num_vars)
        if expected is None:
            pytest.skip("instance is unsatisfiable for this seed")
        optimizer = OptimizingSolver(cnf, objective)
        session = optimizer.make_session()
        first = optimizer.minimize(strategy="linear", session=session)
        assert first.objective == expected
        # A completed linear descent committed ``optimum - 1``: the session
        # now permanently answers "nothing strictly cheaper exists", which
        # is exactly the incumbent-tightening question the subset sweep
        # asks; the proven optimum itself comes from the recorded outcome.
        if expected > 0:
            tightened = optimizer.minimize(
                strategy="linear", session=session, upper_bound=expected - 1
            )
            assert tightened.status == "unsat"
            assert tightened.statistics["fresh_solver"] == 0

    def test_fresh_session_per_call_keeps_calls_independent(self):
        cnf, objective = _weighted_instance()
        optimizer = OptimizingSolver(cnf, objective)
        assert optimizer.minimize(upper_bound=2).status == "unsat"
        # The bound of the previous call must not constrain this one.
        assert optimizer.minimize(upper_bound=10).objective == 3
        assert optimizer.minimize().objective == 3

    def test_repeated_calls_do_not_grow_the_formula(self):
        # Each call opens a fresh session; its ladder nodes are numbered by
        # the session, so the formula (and the next call's search) is the
        # same every time.
        gates = [
            (gate.control, gate.target)
            for gate in paper_example_cnot_skeleton().cnot_gates()
        ]
        encoding = build_encoding(gates, 4, ibm_qx4())
        optimizer = OptimizingSolver(encoding.cnf, encoding.objective)
        num_vars = encoding.cnf.num_vars
        counters = []
        for _ in range(3):
            result = optimizer.minimize(strategy="linear", upper_bound=6)
            counters.append((
                result.objective, result.conflicts, result.iterations,
                result.statistics["propagations"],
            ))
        assert counters[0][:3] == (4, 27, 2)
        assert counters[1] == counters[0] and counters[2] == counters[0]
        assert encoding.cnf.num_vars == num_vars

    def test_seeded_descent_skips_the_wandering_prefix(self):
        cnf, objective, num_vars = _random_instance(11)
        expected = _brute_force_minimum(cnf, objective, num_vars)
        if expected is None:
            pytest.skip("instance is unsatisfiable for this seed")
        unseeded = OptimizingSolver(cnf, objective).minimize()
        seeded = OptimizingSolver(cnf, objective).minimize(upper_bound=expected)
        assert seeded.objective == unseeded.objective == expected
        assert seeded.iterations <= unseeded.iterations

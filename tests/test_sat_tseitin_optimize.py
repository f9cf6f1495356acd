"""Unit tests for the Tseitin encoder and the optimising solver."""

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.optimize import ObjectiveTerm, OptimizingSolver
from repro.sat.solver import CDCLSolver, SolverResult
from repro.sat.tseitin import TseitinEncoder


def enumerate_models(cnf, variables):
    models = []
    all_vars = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(all_vars)):
        assignment = dict(zip(all_vars, bits))
        if cnf.evaluate(assignment):
            models.append({v: assignment[v] for v in variables})
    return models


class TestTseitin:
    def test_and_gate_definition(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        encoder = TseitinEncoder(cnf)
        gate = encoder.encode_and([a, b])
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip([a, b, gate], bits))
            if cnf.evaluate(assignment):
                assert assignment[gate] == (assignment[a] and assignment[b])

    def test_or_gate_definition(self):
        cnf = CNF()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        encoder = TseitinEncoder(cnf)
        gate = encoder.encode_or([a, b, c])
        for bits in itertools.product([False, True], repeat=4):
            assignment = dict(zip([a, b, c, gate], bits))
            if cnf.evaluate(assignment):
                assert assignment[gate] == (assignment[a] or assignment[b] or assignment[c])

    def test_xor_and_iff(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        encoder = TseitinEncoder(cnf)
        xor_gate = encoder.encode_xor(a, b)
        iff_gate = encoder.encode_iff(a, b)
        for bits in itertools.product([False, True], repeat=4):
            assignment = dict(zip([a, b, xor_gate, iff_gate], bits))
            if cnf.evaluate(assignment):
                assert assignment[xor_gate] == (assignment[a] != assignment[b])
                assert assignment[iff_gate] == (assignment[a] == assignment[b])

    def test_single_literal_shortcuts(self):
        cnf = CNF()
        a = cnf.new_var()
        encoder = TseitinEncoder(cnf)
        assert encoder.encode_and([a]) == a
        assert encoder.encode_or([a]) == a

    def test_empty_and_is_true_empty_or_is_false(self):
        cnf = CNF()
        encoder = TseitinEncoder(cnf)
        true_literal = encoder.encode_and([])
        false_literal = encoder.encode_or([])
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolverResult.SAT
        assert solver.model()[true_literal] is True
        assert solver.model()[false_literal] is False

    def test_assertion_helpers(self):
        cnf = CNF()
        a, b, g = cnf.new_var(), cnf.new_var(), cnf.new_var()
        encoder = TseitinEncoder(cnf)
        encoder.add_iff_and(g, [a, b])
        encoder.add_implication(a, b)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        solver.add_clause([a])
        assert solver.solve() is SolverResult.SAT
        model = solver.model()
        assert model[b] is True and model[g] is True


class TestOptimizingSolver:
    def _simple_problem(self):
        cnf = CNF()
        a, b, c = cnf.new_var("a"), cnf.new_var("b"), cnf.new_var("c")
        # At least one of a, b; c implied by a.
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        objective = [ObjectiveTerm(3, a), ObjectiveTerm(5, b), ObjectiveTerm(2, c)]
        return cnf, objective, (a, b, c)

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_finds_minimum(self, strategy):
        cnf, objective, (a, b, c) = self._simple_problem()
        result = OptimizingSolver(cnf, objective).minimize(strategy=strategy)
        assert result.is_optimal
        # Minimum: choose b alone (cost 5) vs a (3) + forced c (2) = 5 -- both
        # optimal assignments cost 5.
        assert result.objective == 5

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_unsat_is_reported(self, strategy):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        result = OptimizingSolver(cnf, [ObjectiveTerm(1, a)]).minimize(strategy=strategy)
        assert result.status == "unsat"
        assert not result.is_satisfiable

    def test_zero_cost_solution_short_circuits(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        result = OptimizingSolver(cnf, [ObjectiveTerm(4, a)]).minimize()
        assert result.objective == 0
        assert result.is_optimal

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveTerm(-1, 2)

    def test_unknown_strategy(self):
        cnf = CNF()
        cnf.add_clause([cnf.new_var()])
        with pytest.raises(ValueError):
            OptimizingSolver(cnf, []).minimize(strategy="simulated_annealing")

    def test_empty_objective_is_zero(self):
        cnf = CNF()
        cnf.add_clause([cnf.new_var()])
        result = OptimizingSolver(cnf, []).minimize()
        assert result.objective == 0
        assert result.is_optimal

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_matches_brute_force_on_random_instances(self, strategy):
        import random

        rng = random.Random(42)
        for _ in range(5):
            cnf = CNF()
            num_vars = 6
            variables = [cnf.new_var() for _ in range(num_vars)]
            for _ in range(8):
                chosen = rng.sample(variables, 3)
                cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
            weights = [rng.randint(1, 9) for _ in range(num_vars)]
            objective = [ObjectiveTerm(w, v) for w, v in zip(weights, variables)]

            # Brute-force minimum.
            best = None
            for bits in itertools.product([False, True], repeat=num_vars):
                assignment = dict(zip(variables, bits))
                if cnf.evaluate(assignment):
                    cost = sum(w for w, b in zip(weights, bits) if b)
                    best = cost if best is None else min(best, cost)

            result = OptimizingSolver(cnf, objective).minimize(strategy=strategy)
            if best is None:
                assert result.status == "unsat"
            else:
                assert result.is_optimal
                assert result.objective == best

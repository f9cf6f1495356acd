"""Tests for bound seeding: ``minimize(upper_bound=...)`` and ``SATMapper.map(upper_bound=...)``."""

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_cnot_skeleton,
)
from repro.exact import sat_mapper
from repro.exact.sat_mapper import SATMapper, SATMapperError
from repro.heuristic.sabre_lite import SabreLiteMapper
from repro.sat.cnf import CNF
from repro.sat.optimize import ObjectiveTerm, OptimizingSolver


def _weighted_instance():
    """CNF ``(a | b)`` with objective ``3a + 5b`` — minimum 3."""
    cnf = CNF()
    a, b = cnf.new_var("a"), cnf.new_var("b")
    cnf.add_clause([a, b])
    return cnf, [ObjectiveTerm(3, a), ObjectiveTerm(5, b)]


@pytest.fixture(scope="module")
def plain_paper_result():
    """Unseeded full-formulation SAT result of the paper example.

    The unseeded solve is by far the most expensive step of this module
    (the optimiser descends from an arbitrary first model), so it is shared
    by every test that compares against it.
    """
    return SATMapper(ibm_qx4(), optimizer="linear").map(paper_example_cnot_skeleton())


@pytest.fixture(scope="module")
def paper_heuristic_bound():
    """SabreLite's added cost on the paper example (a valid upper bound)."""
    return SabreLiteMapper(ibm_qx4()).map(paper_example_cnot_skeleton()).added_cost


class TestOptimizerUpperBound:
    @pytest.mark.parametrize("strategy", ["linear", "core"])
    @pytest.mark.parametrize("bound", [3, 4, 10])
    def test_objective_never_exceeds_bound(self, strategy, bound):
        cnf, objective = _weighted_instance()
        result = OptimizingSolver(cnf, objective).minimize(
            strategy=strategy, upper_bound=bound
        )
        assert result.is_satisfiable
        assert result.objective <= bound
        assert result.objective == 3
        assert result.is_optimal

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_unreachable_bound_reports_unsat(self, strategy):
        cnf, objective = _weighted_instance()
        result = OptimizingSolver(cnf, objective).minimize(
            strategy=strategy, upper_bound=2
        )
        assert result.status == "unsat"
        assert not result.is_satisfiable

    def test_negative_bound_rejected(self):
        cnf, objective = _weighted_instance()
        with pytest.raises(ValueError):
            OptimizingSolver(cnf, objective).minimize(upper_bound=-1)

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_minimize_does_not_mutate_caller_cnf(self, strategy):
        # Seed clauses and descent bounds are search state: a later call on
        # the same instance must not inherit an earlier call's F <= k.
        cnf, objective = _weighted_instance()
        clauses_before = cnf.num_clauses
        solver = OptimizingSolver(cnf, objective)
        assert solver.minimize(strategy=strategy, upper_bound=2).status == "unsat"
        assert cnf.num_clauses == clauses_before
        again = solver.minimize(strategy=strategy, upper_bound=10)
        assert again.objective == 3
        unbounded = solver.minimize(strategy=strategy)
        assert unbounded.objective == 3

    def test_seeding_reduces_linear_iterations(self):
        unseeded_cnf, unseeded_objective = _weighted_instance()
        unseeded = OptimizingSolver(unseeded_cnf, unseeded_objective).minimize()
        seeded_cnf, seeded_objective = _weighted_instance()
        seeded = OptimizingSolver(seeded_cnf, seeded_objective).minimize(upper_bound=3)
        assert seeded.objective == unseeded.objective == 3
        assert seeded.iterations <= unseeded.iterations


class TestSATMapperUpperBound:
    def test_seeded_map_matches_unseeded(self, plain_paper_result, paper_heuristic_bound):
        circuit = paper_example_cnot_skeleton()
        seeded = SATMapper(ibm_qx4()).map(circuit, upper_bound=paper_heuristic_bound)
        assert plain_paper_result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert seeded.added_cost == plain_paper_result.added_cost
        assert seeded.optimal
        assert seeded.statistics["seeded_upper_bound"] == paper_heuristic_bound

    def test_seeding_reduces_solver_iterations_on_paper_example(
        self, paper_heuristic_bound, monkeypatch
    ):
        # Within DP's state limit the mapper starts at DP's schedule and
        # closes the paper example on its structural bound, unseeded or
        # not; beyond it the descent starts cold, where the bound pays.
        monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
        circuit = paper_example_cnot_skeleton()
        plain = SATMapper(ibm_qx4(), optimizer="linear").map(circuit)
        seeded = SATMapper(ibm_qx4(), optimizer="linear").map(
            circuit, upper_bound=paper_heuristic_bound
        )
        assert (
            seeded.statistics["solver_iterations"]
            < plain.statistics["solver_iterations"]
        )

    def test_too_tight_bound_raises(self):
        circuit = paper_example_cnot_skeleton()
        with pytest.raises(SATMapperError):
            SATMapper(ibm_qx4()).map(
                circuit, upper_bound=PAPER_EXAMPLE_MINIMAL_COST - 1
            )

    def test_bound_equal_to_minimum_still_proves_it(self):
        circuit = paper_example_cnot_skeleton()
        result = SATMapper(ibm_qx4()).map(
            circuit, upper_bound=PAPER_EXAMPLE_MINIMAL_COST
        )
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal


def _qx4_circuit(name):
    if name == "paper":
        return paper_example_cnot_skeleton()
    return benchmark_circuit(name)


@pytest.mark.parametrize("use_subsets", [False, True], ids=["full", "subsets"])
@pytest.mark.parametrize("name", ["paper", "ex-1_166", "ham3_102", "4gt11_84"])
def test_heuristic_bound_changes_nothing(name, use_subsets):
    # Every family within DP's state limit starts at DP's exact schedule,
    # so a heuristic's bound is never the incumbent: the seeded solve makes
    # the same calls and reaches the same answer as the unseeded one.
    circuit = _qx4_circuit(name)
    bound = SabreLiteMapper(ibm_qx4()).map(circuit).added_cost
    plain = SATMapper(ibm_qx4(), use_subsets=use_subsets).map(circuit)
    seeded = SATMapper(ibm_qx4(), use_subsets=use_subsets).map(
        circuit, upper_bound=bound
    )
    assert bound >= plain.added_cost
    assert seeded.added_cost == plain.added_cost
    assert seeded.optimal == plain.optimal
    for key in ("solver_conflicts", "solver_iterations"):
        assert seeded.statistics[key] == plain.statistics[key]

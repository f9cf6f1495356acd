"""Tests for the optimizer descents, core-guided descent and model warm
starts, across the optimize / SATMapper layers."""

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib import benchmark_circuit
from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_cnot_skeleton,
)
from repro.exact import sat_mapper
from repro.exact.dp_mapper import DPMapper, dp_schedule
from repro.exact.encoding import build_encoding
from repro.exact.sat_mapper import SATMapper
from repro.exact.splitting import SplitSATMapper
from repro.sat.cnf import CNF
from repro.sat.optimize import (
    DEFAULT_OPTIMIZER,
    OPTIMIZERS,
    ObjectiveTerm,
    OptimizingSolver,
    resolve_optimizer_name,
)


def _paper_minimize(strategy, **kwargs):
    """``OptimizingSolver.minimize`` on the paper example's full-device
    encoding, cold: the mapper itself starts that instance at DP's schedule
    and closes it on its structural bound, without a solver call."""
    circuit = paper_example_cnot_skeleton()
    gates, spots = SATMapper(ibm_qx4()).cnot_instance(circuit)
    encoding = build_encoding(
        gates, circuit.num_qubits, ibm_qx4(), permutation_spots=spots
    )
    solver = OptimizingSolver(encoding.cnf, encoding.objective)
    return solver.minimize(strategy=strategy, **kwargs)


def _toy_instance():
    cnf = CNF()
    a, b, c = cnf.new_var("a"), cnf.new_var("b"), cnf.new_var("c")
    cnf.add_clause([a, b])
    cnf.add_clause([b, c])
    objective = [ObjectiveTerm(2, a), ObjectiveTerm(3, b), ObjectiveTerm(4, c)]
    return cnf, objective


class TestRegistry:
    def test_builtins_registered(self):
        assert set(OPTIMIZERS) == {"linear", "core"}
        assert DEFAULT_OPTIMIZER in OPTIMIZERS

    def test_descent_names_resolve_to_themselves(self):
        for name in ("linear", "core"):
            assert resolve_optimizer_name(name) == name

    @pytest.mark.parametrize(
        "alias",
        ["core-guided", "maxsat", "bisect", "binary", "descent", "LINEAR"],
    )
    def test_other_spellings_are_rejected(self, alias):
        # One spelling per descent, so one job has one cache key.
        with pytest.raises(ValueError, match="'core', 'linear'"):
            resolve_optimizer_name(alias)

    def test_unknown_name_raises_value_error_with_choices(self):
        with pytest.raises(ValueError, match="core"):
            resolve_optimizer_name("simulated_annealing")

    def test_descriptions_are_one_liners(self):
        for name in ("linear", "core"):
            assert OPTIMIZERS[name]
            assert "\n" not in OPTIMIZERS[name]

    def test_minimize_rejects_unknown_strategy(self):
        cnf, objective = _toy_instance()
        with pytest.raises(ValueError):
            OptimizingSolver(cnf, objective).minimize(strategy="nope")


class TestCoreGuidedDescent:
    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_same_minimum_on_toy_instance(self, strategy):
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize(strategy=strategy)
        assert result.is_optimal
        assert result.objective == 3  # b alone satisfies both clauses

    def test_core_counters_on_toy_instance(self):
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize(strategy="core")
        assert result.statistics["cores_found"] >= 1
        assert result.statistics["core_literals_relaxed"] >= 1
        assert 0 < result.statistics["core_lower_bound"] <= result.objective

    def test_core_respects_seeded_upper_bound(self):
        cnf, objective = _toy_instance()
        solver = OptimizingSolver(cnf, objective)
        assert solver.minimize(strategy="core", upper_bound=2).status == "unsat"
        assert solver.minimize(strategy="core", upper_bound=3).objective == 3

    def test_core_reports_hard_unsat(self):
        cnf = CNF()
        a = cnf.new_var("a")
        cnf.add_clause([a])
        cnf.add_clause([-a])
        result = OptimizingSolver(cnf, [ObjectiveTerm(1, a)]).minimize(
            strategy="core"
        )
        assert result.status == "unsat"

    def test_core_handles_empty_objective(self):
        cnf = CNF()
        a = cnf.new_var("a")
        cnf.add_clause([a])
        result = OptimizingSolver(cnf, []).minimize(strategy="core")
        assert result.is_optimal
        assert result.objective == 0


class TestCoreRefutesFirst:
    def test_core_is_the_default(self):
        assert DEFAULT_OPTIMIZER == "core"
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize()
        assert "cores_found" in result.statistics

    def test_bound_at_optimum_proven_in_two_calls(self):
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize(
            strategy="core", upper_bound=3
        )
        # One model within the bound, one UNSAT probe below it; no cores.
        assert result.is_optimal
        assert result.objective == 3
        assert result.iterations == 2
        assert result.statistics["cores_found"] == 0

    def test_cheaper_probe_model_goes_on_to_the_cores(self):
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize(
            strategy="core",
            initial_model={1: True, 2: True, 3: True},
            initial_objective=9,
        )
        assert result.is_optimal
        assert result.objective == 3
        assert result.statistics["descent_iterations"] >= 1
        assert result.statistics["cores_found"] >= 1

    def test_refutation_probe_is_never_committed(self):
        cnf, objective = _toy_instance()
        solver = OptimizingSolver(cnf, objective)
        session = solver.make_session()
        bounded = solver.minimize(strategy="core", upper_bound=4, session=session)
        assert bounded.objective == 3
        assert session.committed_bound is None
        # The session still answers an unbounded solve after the probe.
        assert solver.minimize(strategy="core", session=session).objective == 3


class TestInitialModelWarmStart:
    def test_requires_objective_with_model(self):
        cnf, objective = _toy_instance()
        with pytest.raises(ValueError):
            OptimizingSolver(cnf, objective).minimize(initial_model={1: True})

    @pytest.mark.parametrize("strategy", ["linear", "core"])
    def test_incumbent_is_used_and_optimum_proven(self, strategy):
        cnf, objective = _toy_instance()
        solver = OptimizingSolver(cnf, objective)
        reference = solver.minimize()
        result = solver.minimize(
            strategy=strategy,
            initial_model=reference.model,
            initial_objective=reference.objective,
        )
        assert result.is_optimal
        assert result.objective == reference.objective
        assert result.statistics["model_seeded"] == 1

    def test_linear_needs_only_the_final_probe(self):
        cnf, objective = _toy_instance()
        solver = OptimizingSolver(cnf, objective)
        reference = solver.minimize()
        result = solver.minimize(
            initial_model=reference.model,
            initial_objective=reference.objective,
        )
        # One UNSAT probe below the incumbent; no model-producing solves.
        assert result.iterations == 1
        assert result.statistics["descent_iterations"] == 0

    def test_zero_cost_incumbent_short_circuits(self):
        cnf = CNF()
        a = cnf.new_var("a")
        cnf.add_clause([a, -a])
        result = OptimizingSolver(cnf, [ObjectiveTerm(5, a)]).minimize(
            initial_model={a: False}, initial_objective=0
        )
        assert result.is_optimal
        assert result.objective == 0
        assert result.iterations == 0

    def test_incumbent_worse_than_bound_is_ignored(self):
        cnf, objective = _toy_instance()
        result = OptimizingSolver(cnf, objective).minimize(
            upper_bound=3,
            initial_model={1: True, 2: True, 3: True},
            initial_objective=9,
        )
        assert result.is_optimal
        assert result.objective == 3
        assert "model_seeded" not in result.statistics


class TestSATMapperStrategies:
    def test_optimizer_validated_at_construction(self):
        with pytest.raises(ValueError, match="available"):
            SATMapper(ibm_qx4(), optimizer="annealing")

    def test_split_mapper_validates_optimizer_at_construction(self):
        with pytest.raises(ValueError, match="available"):
            SplitSATMapper(ibm_qx4(), optimizer="nope")
        assert SplitSATMapper(ibm_qx4(), optimizer="linear").optimizer == "linear"

    @pytest.mark.parametrize("optimizer", ["linear", "core"])
    def test_paper_example_same_minimum(self, optimizer):
        circuit = paper_example_cnot_skeleton()
        result = SATMapper(ibm_qx4(), optimizer=optimizer).map(circuit)
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal
        assert result.statistics["optimizer"] == optimizer

    def test_core_uses_fewer_iterations_than_linear_on_paper_example(self):
        linear = _paper_minimize("linear")
        core = _paper_minimize("core")
        assert core.objective == linear.objective == PAPER_EXAMPLE_MINIMAL_COST
        assert core.iterations < linear.iterations
        assert core.statistics["cores_found"] >= 1

    @pytest.mark.parametrize("name", ["ex-1_166", "ham3_102"])
    @pytest.mark.parametrize("optimizer", ["linear", "core"])
    def test_table1_3qubit_circuits_same_minimum(self, name, optimizer):
        circuit = benchmark_circuit(name)
        reference = DPMapper(ibm_qx4()).map(circuit)
        result = SATMapper(
            ibm_qx4(), use_subsets=True, optimizer=optimizer
        ).map(circuit)
        assert result.added_cost == reference.added_cost

    def test_default_optimizer_reported(self):
        result = SATMapper(ibm_qx4()).map(paper_example_cnot_skeleton())
        assert result.statistics["optimizer"] == "core"

    def test_core_proves_seeded_bound_in_two_calls(self):
        result = _paper_minimize("core", upper_bound=PAPER_EXAMPLE_MINIMAL_COST)
        assert result.objective == PAPER_EXAMPLE_MINIMAL_COST
        assert result.status == "optimal"
        assert result.iterations == 2

    def test_core_refutes_dp_incumbent_in_one_call(self):
        """ex-1_166 on qx4: structural bound 4, minimum 8 — no closure."""
        circuit = benchmark_circuit("ex-1_166")
        reference = DPMapper(ibm_qx4()).map(circuit)
        result = SATMapper(ibm_qx4(), optimizer="core").map(circuit)
        assert result.added_cost == reference.added_cost == 8
        assert result.optimal
        assert result.statistics["families_dp_seeded"] == 1
        assert result.statistics["families_closed"] == 0
        assert result.statistics["solver_iterations"] == 1
        assert result.statistics.get("descent_iterations", 0) == 0

    def test_model_seed_above_the_structural_bound_runs_one_probe(self):
        """ex-1_166 on qx4: DP's seed (8) is above the structural bound (4),
        so the family is not closed; one probe below the seed proves it."""
        circuit = benchmark_circuit("ex-1_166")
        result = SATMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 8
        assert result.optimal
        assert result.statistics["families_dp_seeded"] == 1
        assert result.statistics["families_closed"] == 0
        assert result.statistics["solver_iterations"] == 1
        assert result.statistics.get("descent_iterations", 0) == 0

    def test_model_seeded_map_skips_the_descent(self):
        result = SATMapper(ibm_qx4()).map(paper_example_cnot_skeleton())
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal
        # DP's schedule meets the structural lower bound (4): closed
        # unsolved.
        assert result.statistics["families_dp_seeded"] == 1
        assert result.statistics["solver_iterations"] == 0
        assert result.statistics["families_closed"] == 1
        assert result.statistics.get("descent_iterations", 0) == 0

    def test_understated_seed_objective_does_not_close(self, monkeypatch):
        """A seed's objective below its schedule's cost is not trusted.

        Claimed 3 against the structural bound 4 would close the family at
        a false optimum; the encoding evaluates the schedule at 4, so the
        seed is dropped and the family is solved to the true minimum.
        """

        def understated(coupling, num_logical, gates, spots):
            mappings, objective, transitions = dp_schedule(
                coupling, num_logical, gates, spots
            )
            return mappings, objective - 1, transitions

        monkeypatch.setattr(sat_mapper, "dp_schedule", understated)
        result = SATMapper(ibm_qx4()).map(paper_example_cnot_skeleton())
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.optimal
        assert result.statistics["families_dp_seeded"] == 0
        assert result.statistics["families_closed"] == 0
        assert result.statistics["solver_iterations"] >= 1

    def test_invalid_initial_model_is_ignored(self, monkeypatch):
        """DP's seed reaches the optimiser as its initial model; a schedule
        that is no model of the encoding (here not injective) is dropped."""

        def bogus(coupling, num_logical, gates, spots):
            mappings, objective, transitions = dp_schedule(
                coupling, num_logical, gates, spots
            )
            return [(0, 0, 0, 0)] * len(mappings), objective, transitions

        monkeypatch.setattr(sat_mapper, "dp_schedule", bogus)
        result = SATMapper(ibm_qx4()).map(paper_example_cnot_skeleton())
        assert result.added_cost == PAPER_EXAMPLE_MINIMAL_COST
        assert result.statistics["families_dp_seeded"] == 0
        assert "model_seeded" not in result.statistics

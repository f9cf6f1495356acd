"""Unit tests for the symbolic mapping formulation (Section 3.2)."""

import pytest

from repro.arch.devices import ibm_qx4
from repro.arch.permutations import PermutationTable
from repro.exact.encoding import EncodingError, build_encoding
from repro.sat.optimize import OptimizingSolver
from repro.sat.solver import CDCLSolver, SolverResult


def small_subgraph():
    """The triangle p1, p2, p3 of QX4 (0-based 0, 1, 2), re-indexed."""
    return ibm_qx4().subgraph((0, 1, 2))


class TestBuildEncoding:
    def test_variable_counts(self):
        coupling = small_subgraph()
        encoding = build_encoding([(0, 1), (1, 2)], 3, coupling)
        # x variables: 2 gates * 3 physical * 3 logical = 18 of the total.
        assert len(encoding.x_vars) == 2
        assert len(encoding.x_vars[0]) == 9
        # One z per gate, y's only for spot 1 (the initial mapping is free).
        assert set(encoding.z_vars) == {0, 1}
        assert set(encoding.y_vars) == {1}
        assert len(encoding.y_vars[1]) == 6  # 3! permutations of the triangle

    def test_errors(self):
        coupling = small_subgraph()
        with pytest.raises(EncodingError):
            build_encoding([], 3, coupling)
        with pytest.raises(EncodingError):
            build_encoding([(0, 1)], 5, coupling)
        with pytest.raises(EncodingError):
            build_encoding([(0, 7)], 3, coupling)
        with pytest.raises(EncodingError):
            build_encoding([(0, 1)], 3, coupling, permutation_spots=[5])

    def test_satisfiable_and_schedule_extraction(self):
        coupling = small_subgraph()
        encoding = build_encoding([(0, 1), (1, 2)], 3, coupling)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve() is SolverResult.SAT
        mappings = encoding.extract_schedule(solver.model())
        assert len(mappings) == 2
        for mapping in mappings:
            assert sorted(mapping) == [0, 1, 2]

    def test_every_model_respects_coupling(self):
        coupling = small_subgraph()
        encoding = build_encoding([(0, 1)], 2, coupling)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve() is SolverResult.SAT
        mapping = encoding.extract_schedule(solver.model())[0]
        control, target = mapping[0], mapping[1]
        assert coupling.connected(control, target)

    def test_objective_value_reflects_z_variables(self):
        coupling = small_subgraph()
        encoding = build_encoding([(0, 1)], 2, coupling)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        # Force a reversed placement: logical control on physical 0 and target
        # on physical 1; only (1, 0) and (2, 0), (2, 1) are native on the
        # triangle, so this placement needs the 4-H direction fix.
        solver.add_clause([encoding.x_vars[0][(0, 0)]])
        solver.add_clause([encoding.x_vars[0][(1, 1)]])
        assert solver.solve() is SolverResult.SAT
        model = solver.model()
        assert model[encoding.z_vars[0]] is True
        assert encoding.objective_value(model) == 4

    def test_non_spot_gates_keep_mapping_fixed(self):
        coupling = small_subgraph()
        encoding = build_encoding(
            [(0, 1), (1, 2), (0, 2)], 3, coupling, permutation_spots=[0]
        )
        assert encoding.y_vars == {}
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve() is SolverResult.SAT
        mappings = encoding.extract_schedule(solver.model())
        assert mappings[0] == mappings[1] == mappings[2]

    def test_partial_mapping_uses_footnote5_encoding(self):
        # n < m: exactly-one y per spot with implication semantics.
        qx4 = ibm_qx4()
        table = PermutationTable(qx4)
        encoding = build_encoding([(0, 1), (1, 0)], 2, qx4, permutation_table=table)
        assert len(encoding.y_vars[1]) == 120
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve() is SolverResult.SAT
        model = solver.model()
        selected = [
            perm for perm, var in encoding.y_vars[1].items() if model[var]
        ]
        assert len(selected) == 1

    def test_schedule_objective_matches_the_solved_objective(self):
        encoding = build_encoding(
            [(0, 1), (1, 2), (2, 0), (0, 1), (2, 1)], 3, small_subgraph()
        )
        result = OptimizingSolver(encoding.cnf, encoding.objective).minimize()
        assert result.is_optimal and result.objective > 0
        schedule = encoding.extract_schedule(result.model)
        assert encoding.schedule_objective(schedule) == result.objective

    def test_schedule_objective_rejects_uncoupled_placement(self):
        # On QX4's path p1-p3-p4 (re-indexed 0-1-2), physical 0 and 2 are
        # not coupled, so logical 0 and 2 cannot meet there.
        encoding = build_encoding([(0, 2)], 3, ibm_qx4().subgraph((0, 2, 3)))
        with pytest.raises(EncodingError):
            encoding.schedule_objective([(0, 1, 2)])

    def test_optimizer_finds_zero_cost_for_native_pair(self):
        coupling = small_subgraph()
        encoding = build_encoding([(1, 0)], 2, coupling)
        result = OptimizingSolver(encoding.cnf, encoding.objective).minimize()
        assert result.is_optimal
        assert result.objective == 0

    def test_spot_list_always_contains_zero(self):
        coupling = small_subgraph()
        encoding = build_encoding(
            [(0, 1), (1, 2)], 3, coupling, permutation_spots=[1]
        )
        assert encoding.permutation_spots == [0, 1]

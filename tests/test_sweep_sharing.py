"""Tests for sweep-scale solving: clause sharing, family pruning, benchmarks.

Covers the cross-family reuse machinery of :mod:`repro.exact.sweep` and its
integration into :class:`repro.exact.sat_mapper.SATMapper`:

* learned-clause export/import on the solver and session (boundary, size
  filter, dedupe),
* the clause-import *correctness invariant* — every imported (remapped)
  clause must be implied by the target family's formula (checked by
  refutation, property-style over everything a real sweep exports),
* the provable structural lower bound and the directed/undirected edge
  embeddings,
* lower-bound family pruning (skips without solving, identical minima),
* sweep determinism,
* the encoding skeleton cache (identical formulas with and without reuse),
* the ``propagations`` counter surfacing.
"""

import pytest

from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.arch.subsets import connected_subsets
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact.dp_mapper import dp_schedule
from repro.exact.encoding import build_encoding, clear_skeleton_cache
from repro.exact import sat_mapper
from repro.exact.sat_mapper import SATMapper, SHARE_MAX_CLAUSE_SIZE
from repro.exact.sweep import (
    clause_is_implied,
    encoding_variable_remap,
    find_edge_embedding,
    structural_lower_bound,
)
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolverResult


TRIANGLE = (0, 1, 2)   # qx4 sub-coupling {(1,0), (2,0), (2,1)}
PATH = (0, 2, 3)       # qx4 sub-coupling {(1,0), (2,1)}


def _subset_coupling(subset):
    return ibm_qx4().subgraph(subset)


def _open_family(mapper, subset, gates, num_logical, spots):
    """The one-member family of *subset*, encoded with its session open."""
    (family,) = mapper.plan_families([subset], gates)
    mapper._open_family(family, gates, num_logical, spots)
    return family


# ----------------------------------------------------------------------
# Solver-level export / import
# ----------------------------------------------------------------------
class TestSolverExportImport:
    def _solved_solver(self):
        solver = CDCLSolver()
        # A small pigeonhole-flavoured instance that forces some learning.
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1, -2])
        solver.add_clause([-1, -3])
        solver.add_clause([-2, -3])
        solver.add_clause([1, 2])
        assert solver.solve() is SolverResult.SAT
        return solver

    def test_export_respects_size_filter(self):
        solver = self._solved_solver()
        for clause in solver.export_learned(max_size=2):
            assert len(clause) <= 2

    def test_export_respects_var_filter(self):
        solver = self._solved_solver()
        for clause in solver.export_learned(var_ok=lambda var: var <= 2):
            assert all(abs(literal) <= 2 for literal in clause)

    def test_freeze_boundary_hides_later_learning(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.freeze_exports()
        # Everything learned from now on (under the strengthening clause)
        # must not be exported.
        solver.add_clause([-2, 3])
        solver.add_clause([-2, -3])
        assert solver.solve() is SolverResult.UNSAT
        assert solver.export_learned() == []

    def test_import_dedupe_and_stats(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2, 3])
        added = solver.import_clauses([(1, 2), (2, 1), (1, 2), (1, -1)])
        # (2, 1) and the second (1, 2) are duplicates of (1, 2); (1, -1) is
        # a tautology.  Only one clause lands.
        assert added == 1
        assert solver.statistics["clauses_imported"] == 1
        assert solver.statistics["import_duplicates"] == 2

    def test_imported_unit_constrains_models(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        assert solver.import_clauses([(-1,)]) == 1
        assert solver.solve() is SolverResult.SAT
        assert solver.model()[2] is True
        assert solver.model()[1] is False


# ----------------------------------------------------------------------
# Structural lower bound
# ----------------------------------------------------------------------
class TestStructuralLowerBound:
    def test_swap_bound_counts_placements(self):
        # 3 distinct pairs on 2 undirected edges need at least one SWAP.
        path = _subset_coupling(PATH)
        gates = [(0, 1), (1, 2), (0, 2)]
        assert structural_lower_bound(path, gates) >= 7

    def test_reversal_bound_on_unidirectional_coupling(self):
        triangle = _subset_coupling(TRIANGLE)
        gates = [(0, 1), (1, 0)]
        assert structural_lower_bound(triangle, gates) >= 4

    def test_zero_for_trivial_instances(self):
        triangle = _subset_coupling(TRIANGLE)
        assert structural_lower_bound(triangle, []) == 0
        assert structural_lower_bound(triangle, [(0, 1)]) == 0

    @pytest.mark.parametrize("subset", [TRIANGLE, PATH])
    def test_bound_never_exceeds_true_optimum(self, subset):
        coupling = _subset_coupling(subset)
        mapper = SATMapper(coupling)
        circuit = benchmark_circuit("ex-1_166")
        gates, _ = mapper.cnot_instance(circuit)
        bound = structural_lower_bound(coupling, gates)
        result = mapper.map(circuit)
        assert bound <= result.added_cost


# ----------------------------------------------------------------------
# Edge embeddings
# ----------------------------------------------------------------------
class TestEdgeEmbedding:
    def test_path_embeds_into_triangle(self):
        sigma = find_edge_embedding(
            _subset_coupling(PATH), _subset_coupling(TRIANGLE)
        )
        assert sigma is not None
        triangle_edges = _subset_coupling(TRIANGLE).edges
        for (u, v) in _subset_coupling(PATH).edges:
            assert (sigma[u], sigma[v]) in triangle_edges

    def test_triangle_does_not_embed_into_path(self):
        assert find_edge_embedding(
            _subset_coupling(TRIANGLE), _subset_coupling(PATH)
        ) is None

    def test_undirected_embedding_is_looser(self):
        # qx4's two 4-qubit families are not directed-comparable but share
        # their undirected shape (triangle plus pendant).
        inner = ibm_qx4().subgraph((0, 1, 2, 3))
        outer = ibm_qx4().subgraph((0, 2, 3, 4))
        assert find_edge_embedding(inner, outer) is None
        assert find_edge_embedding(inner, outer, directed=False) is not None

    def test_size_mismatch_returns_none(self):
        assert find_edge_embedding(
            _subset_coupling(PATH), ibm_qx4().subgraph((0, 1, 2, 3))
        ) is None


# ----------------------------------------------------------------------
# Clause-import correctness (property-style)
# ----------------------------------------------------------------------
class TestImportCorrectness:
    def _family_pieces(self, subset, circuit):
        mapper = SATMapper(ibm_qx4(), use_subsets=True)
        gates, spots = mapper.cnot_instance(circuit)
        family = _open_family(mapper, subset, gates, circuit.num_qubits, spots)
        return mapper, gates, spots, family

    def test_every_exported_clause_is_implied_at_home(self):
        circuit = benchmark_circuit("ex-1_166")
        mapper, gates, spots, family = self._family_pieces(TRIANGLE, circuit)
        mapper._solve_family(family, TRIANGLE, None, None)
        exported = family.session.export_learned(
            max_size=SHARE_MAX_CLAUSE_SIZE,
            var_ok=family.encoding.is_shared_variable,
        )
        assert exported, "the triangle solve should learn shareable clauses"
        for clause in exported:
            assert clause_is_implied(family.encoding.cnf, clause)

    def test_every_imported_clause_is_implied_in_target(self):
        """Property: remapped clauses are consequences of the target CNF.

        Solve the triangle family, remap its exports into the *path* family
        (a different directed structure) along the embedding, and check
        every fully-mapped clause by refutation: the target formula plus
        the clause's negation must be UNSAT.
        """
        circuit = benchmark_circuit("ex-1_166")
        mapper, gates, spots, source = self._family_pieces(TRIANGLE, circuit)
        mapper._solve_family(source, TRIANGLE, None, None)
        exported = source.session.export_learned(
            max_size=SHARE_MAX_CLAUSE_SIZE,
            var_ok=source.encoding.is_shared_variable,
        )
        _, _, _, target = self._family_pieces(PATH, circuit)
        sigma = find_edge_embedding(
            _subset_coupling(PATH), _subset_coupling(TRIANGLE),
            directed=False,
        )
        assert sigma is not None
        from repro.arch.permutations import invert_permutation

        remap = encoding_variable_remap(
            source.encoding, target.encoding, invert_permutation(sigma)
        )
        checked = 0
        for clause in exported:
            mapped = [
                remap[abs(l)] if l > 0 else -remap[abs(l)]
                for l in clause if abs(l) in remap
            ]
            if len(mapped) != len(clause):
                continue  # touches a variable with no role in the target
            assert clause_is_implied(target.encoding.cnf, mapped), (
                f"imported clause {clause} -> {mapped} is not implied"
            )
            checked += 1
        assert checked > 0, "at least one clause must fully transfer"

    def test_sweep_runs_clean_under_import_checking(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_IMPORTS", "1")
        circuit = paper_example_cnot_skeleton()
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.added_cost == 4


# ----------------------------------------------------------------------
# Sweep behaviour: pruning, determinism, equivalence
# ----------------------------------------------------------------------
class TestSweepBehaviour:
    def test_pruning_and_sharing_preserve_minima(self):
        # The sweep's answer is the minimum over every connected subset,
        # which DP computes independently on each sub-coupling.
        coupling = ibm_qx4()
        for circuit in (
            paper_example_cnot_skeleton(), benchmark_circuit("ex-1_166")
        ):
            gates = [(g.control, g.target) for g in circuit.cnot_gates()]
            n = circuit.num_qubits
            minimum = min(
                dp_schedule(coupling.subgraph(subset), n, gates,
                            range(len(gates)))[1]
                for subset in connected_subsets(coupling, n)
            )
            result = SATMapper(coupling, use_subsets=True).map(circuit)
            assert result.added_cost == minimum

    def test_table1_sweep_prunes_at_least_one_family(self):
        circuit = benchmark_circuit("ex-1_166")
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.statistics["families_pruned"] >= 1
        assert result.statistics["subsets_pruned"] >= 1

    def test_sweep_is_deterministic(self):
        circuit = benchmark_circuit("ex-1_166")
        first = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        second = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        for key in (
            "solver_conflicts", "solver_iterations", "families_pruned",
            "clauses_exported", "clauses_imported",
        ):
            assert first.statistics[key] == second.statistics[key], key

    def test_plan_families_orders_by_lower_bound(self):
        circuit = benchmark_circuit("ex-1_166")
        mapper = SATMapper(ibm_qx4(), use_subsets=True)
        gates, _ = mapper.cnot_instance(circuit)
        subsets = mapper.candidate_subsets(circuit.num_qubits)
        plans = mapper.plan_families(subsets, gates)
        bounds = [plan.heuristic_lower_bound for plan in plans]
        assert bounds == sorted(bounds)
        covered = sorted(
            index for plan in plans for index in plan.indices
        )
        assert covered == list(range(len(subsets)))

    def test_grid_sweep_shares_and_prunes(self, monkeypatch):
        circuit = benchmark_circuit("ham3_102")
        result = SATMapper(sweep_grid8(), use_subsets=True).map(circuit)
        stats = result.statistics
        assert stats["families_pruned"] >= 1
        assert stats["clauses_imported"] >= 1
        # DP seeds the families within its state limit; beyond it every
        # family starts cold and the sweep still finds the same minimum.
        assert stats["families_dp_seeded"] >= 1
        monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
        beyond = SATMapper(sweep_grid8(), use_subsets=True).map(circuit)
        assert beyond.added_cost == result.added_cost
        assert beyond.statistics["families_dp_seeded"] == 0


# ----------------------------------------------------------------------
# Encoding skeleton cache
# ----------------------------------------------------------------------
class TestSkeletonCache:
    def test_same_undirected_structure_shares_skeleton(self):
        clear_skeleton_cache()
        gates = [(0, 1), (1, 2), (0, 2)]
        first = build_encoding(gates, 3, _subset_coupling(TRIANGLE))
        second = build_encoding(gates, 3, ibm_qx4().subgraph((2, 3, 4)))
        assert first.skeleton is second.skeleton
        # The x block is literally identical; the spot block may shift.
        assert first.x_vars[0][(0, 0)] == second.x_vars[0][(0, 0)]

    def test_reuse_flag_changes_nothing_about_the_formula(self):
        gates = [(0, 1), (1, 2), (0, 2)]
        coupling = _subset_coupling(TRIANGLE)
        clear_skeleton_cache()
        cached = build_encoding(gates, 3, coupling)
        fresh = build_encoding(gates, 3, coupling, reuse_skeleton=False)
        assert cached.cnf.to_dimacs() == fresh.cnf.to_dimacs()
        assert [
            (t.weight, t.literal) for t in cached.objective
        ] == [(t.weight, t.literal) for t in fresh.objective]

    def test_shared_variable_ranges(self):
        gates = [(0, 1), (1, 2)]
        encoding = build_encoding(gates, 3, _subset_coupling(TRIANGLE))
        assert encoding.is_shared_variable(1)
        assert encoding.is_shared_variable(encoding.x_var_limit)
        # The edge block (between x and spot blocks) is private.
        assert not encoding.is_shared_variable(encoding.x_var_limit + 1)
        assert encoding.is_shared_variable(encoding.spot_var_end)
        assert not encoding.is_shared_variable(encoding.spot_var_end + 1)


# ----------------------------------------------------------------------
# Propagations counter surfacing (bench harness dependency)
# ----------------------------------------------------------------------
class TestPropagationsCounter:
    def test_optimization_result_carries_propagations(self):
        from repro.sat.optimize import ObjectiveTerm, OptimizingSolver

        cnf = CNF()
        a, b = cnf.new_var("a"), cnf.new_var("b")
        cnf.add_clause([a, b])
        result = OptimizingSolver(
            cnf, [ObjectiveTerm(3, a), ObjectiveTerm(5, b)]
        ).minimize()
        assert result.statistics["propagations"] > 0

    def test_mapping_result_carries_solver_propagations(self):
        # ex-1_166's DP-seeded family still needs a refutation.
        circuit = benchmark_circuit("ex-1_166")
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.statistics["solver_propagations"] > 0


# ----------------------------------------------------------------------
# CLI --profile
# ----------------------------------------------------------------------
class TestProfileFlag:
    def test_profile_prints_report_to_stderr(self, tmp_path, capsys):
        from repro.circuit.circuit import QuantumCircuit
        from repro.circuit.qasm import to_qasm
        from repro.cli import main

        circuit = QuantumCircuit(3, name="profiled")
        circuit.cx(0, 1).cx(1, 2)
        path = tmp_path / "circuit.qasm"
        path.write_text(to_qasm(circuit))
        exit_code = main([str(path), "--engine", "sat", "--profile"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cumulative" in captured.err
        assert "added operations" in captured.out

"""Exact solver-call pins for the two objective descents.

Every descent (``linear``, ``core``) must make the same solver
calls, in the same order, with the same bounds and assumptions, whatever the
shape of the code around it.  These pins hold the resulting counters fixed:
a refactor of :mod:`repro.sat.optimize` that moves any of them has changed
the search, not just the code.

The counters are deterministic (the CDCL solver has no randomness), so the
figures are exact, not ceilings.

The paper-example cases run ``OptimizingSolver.minimize`` on the example's
full-device encoding, cold: :class:`SATMapper` itself starts that instance
at DP's schedule, which meets the structural lower bound, and decides it
without a solver call.  The ex-1_166 sweep still compares the descents
through the mapper, each refuting the bound below DP's schedule.
"""

import pytest

from repro.arch.devices import ibm_qx4
from repro.benchlib import benchmark_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact.dp_mapper import DPMapper
from repro.exact.encoding import build_encoding
from repro.exact.sat_mapper import SATMapper
from repro.sat.optimize import OptimizingSolver

#: (added_cost, solver_iterations, solver_conflicts, descent_iterations,
#: cores_found, core_literals_relaxed, core_lower_bound); zero counters are
#: absent from the mapper's statistics and read as 0 here.
MAPPER_PINS = {
    ("paper", "linear"): (4, 12, 123, 11, 0, 0, 0),
    ("paper", "core"): (4, 5, 39, 4, 1, 360, 4),
    ("paper_bound6", "linear"): (4, 2, 27, 1, 0, 0, 0),
    ("paper_bound6", "core"): (4, 2, 28, 1, 0, 0, 0),
    ("ex-1_166_subsets", "linear"): (8, 1, 29, 0, 0, 0, 0),
    ("ex-1_166_subsets", "core"): (8, 1, 29, 0, 0, 0, 0),
}

MAPPER_KEYS = (
    "solver_iterations",
    "solver_conflicts",
    "descent_iterations",
    "cores_found",
    "core_literals_relaxed",
    "core_lower_bound",
)


def _observed(case, optimizer):
    """The pinned tuple of one case."""
    if case == "ex-1_166_subsets":
        mapper = SATMapper(ibm_qx4(), use_subsets=True, optimizer=optimizer)
        result = mapper.map(benchmark_circuit("ex-1_166"))
        assert result.statistics["optimizer"] == optimizer
        return (result.added_cost,) + tuple(
            result.statistics.get(key, 0) for key in MAPPER_KEYS
        )
    upper_bound = 6 if case == "paper_bound6" else None
    encoding = _paper_encoding()
    result = OptimizingSolver(encoding.cnf, encoding.objective).minimize(
        strategy=optimizer, upper_bound=upper_bound
    )
    counters = dict(
        result.statistics,
        solver_iterations=result.iterations,
        solver_conflicts=result.conflicts,
    )
    return (result.objective,) + tuple(
        counters.get(key, 0) for key in MAPPER_KEYS
    )


@pytest.mark.parametrize("case,optimizer", sorted(MAPPER_PINS))
def test_mapper_descent_counters(case, optimizer):
    assert _observed(case, optimizer) == MAPPER_PINS[(case, optimizer)]


def _session_counters(**extra):
    counters = {
        "solve_calls": 0,
        "assumption_solves": 0,
        "committed_bounds": 0,
        "bound_nodes_created": 0,
        "bound_nodes_reused": 0,
        "bound_clauses_added": 0,
        "phase_seeds": 1,
        "clauses_exported": 0,
        "clauses_imported": 0,
        "import_clauses_dropped": 0,
        "fresh_solver": 1,
        "model_seeded": 1,
    }
    counters.update(extra)
    return counters


def _core_counters(found, relaxed, lower):
    return {
        "cores_found": found,
        "core_literals_relaxed": relaxed,
        "core_lower_bound": lower,
    }


#: (status, objective, iterations, conflicts, len(final_core),
#: len(core_labels), statistics) of ``OptimizingSolver.minimize`` on the
#: paper example's full-device encoding, seeded with an incumbent either at
#: the optimum (DP's schedule, cost 4) or above it (the first model within
#: ``F <= 20``, cost 18).
SEEDED_PINS = {
    ("optimum", "linear"): ("optimal", 4, 1, 11, 0, 0, _session_counters(
        solve_calls=1, committed_bounds=1, bound_nodes_created=481,
        bound_clauses_added=961, propagations=3337,
        learned_clauses_retained=8, descent_iterations=0,
    )),
    ("optimum", "core"): ("optimal", 4, 1, 13, 1, 1, _session_counters(
        solve_calls=1, assumption_solves=1, bound_nodes_created=481,
        bound_clauses_added=961, propagations=3417,
        learned_clauses_retained=12, descent_iterations=0,
        **_core_counters(0, 0, 0),
    )),
    ("above", "linear"): ("optimal", 4, 5, 67, 0, 0, _session_counters(
        solve_calls=5, committed_bounds=5, bound_nodes_created=2531,
        bound_nodes_reused=244, bound_clauses_added=5047, propagations=29117,
        learned_clauses_retained=65, descent_iterations=4,
    )),
    ("above", "core"): ("optimal", 4, 3, 40, 121, 13, _session_counters(
        solve_calls=3, assumption_solves=3, bound_nodes_created=612,
        bound_nodes_reused=120, bound_clauses_added=1214, propagations=11119,
        learned_clauses_retained=40, descent_iterations=2,
        **_core_counters(1, 121, 4),
    )),
}


def _paper_encoding():
    circuit = paper_example_cnot_skeleton()
    gates, spots = SATMapper(ibm_qx4()).cnot_instance(circuit)
    return build_encoding(
        gates, circuit.num_qubits, ibm_qx4(), permutation_spots=spots
    )


@pytest.mark.parametrize("seed,strategy", sorted(SEEDED_PINS))
def test_incumbent_seeded_minimize_counters(seed, strategy):
    # The probe session of the "above" case numbers its ladder nodes on
    # its own, so the minimised formula is the same as in the "optimum"
    # case: it carries none of the probe's ladder variables.
    encoding = _paper_encoding()
    solver = OptimizingSolver(encoding.cnf, encoding.objective)
    if seed == "optimum":
        schedule = DPMapper(ibm_qx4()).map(paper_example_cnot_skeleton()).schedule
        model = encoding.assignment_from_schedule(schedule.mappings)
        value = encoding.schedule_objective(schedule.mappings)
    else:
        probe = solver.make_session()
        probe.solve_with_bound(20)
        model = probe.model()
        value = probe.objective_value(model)
    result = solver.minimize(
        strategy=strategy, initial_model=model, initial_objective=value
    )
    observed = (
        result.status,
        result.objective,
        result.iterations,
        result.conflicts,
        len(result.final_core),
        len(result.core_labels),
        result.statistics,
    )
    assert observed == SEEDED_PINS[(seed, strategy)]

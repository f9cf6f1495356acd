"""Property-based tests (hypothesis) for the core data structures and invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.arch.devices import ibm_qx4, linear_architecture
from repro.arch.permutations import (
    PermutationTable,
    apply_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    swap_transposition,
)
from repro.benchlib.generators import random_clifford_t_circuit
from repro.circuit.qasm import parse_qasm, to_qasm
from repro.exact.dp_mapper import DPMapper
from repro.heuristic.stochastic_swap import StochasticSwapMapper
from repro.sat.cardinality import exactly_one
from repro.sat.cnf import CNF
from repro.sat.session import SolveSession
from repro.sat.solver import CDCLSolver, SolverResult
from repro.sim.equivalence import result_is_equivalent
from repro.verify import verify_result

QX4_TABLE = PermutationTable(ibm_qx4())


# ---------------------------------------------------------------------------
# Permutation algebra
# ---------------------------------------------------------------------------
@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_inverse_composes_to_identity(perm):
    perm = tuple(perm)
    assert compose_permutations(perm, invert_permutation(perm)) == identity_permutation(5)
    assert compose_permutations(invert_permutation(perm), perm) == identity_permutation(5)


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_apply_permutation_respects_composition(first, second):
    first, second = tuple(first), tuple(second)
    mapping = (0, 1, 2, 3, 4)
    composed = compose_permutations(first, second)
    step_by_step = apply_permutation(second, apply_permutation(first, mapping))
    assert apply_permutation(composed, mapping) == step_by_step


@given(st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_swap_table_sequences_realise_their_permutation(perm):
    perm = tuple(perm)
    sequence = QX4_TABLE.swap_sequence(perm)
    realised = identity_permutation(5)
    for edge in sequence:
        realised = compose_permutations(realised, swap_transposition(5, edge))
    assert realised == perm
    assert len(sequence) == QX4_TABLE.swaps(perm)


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_swap_counts_satisfy_triangle_inequality(first, second):
    first, second = tuple(first), tuple(second)
    combined = compose_permutations(first, second)
    assert QX4_TABLE.swaps(combined) <= QX4_TABLE.swaps(first) + QX4_TABLE.swaps(second)


# ---------------------------------------------------------------------------
# SAT substrate
# ---------------------------------------------------------------------------
@st.composite
def small_cnf(draw):
    num_vars = draw(st.integers(min_value=3, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=25))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=3))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        clauses.append([v if s else -v for v, s in zip(variables, signs)])
    return num_vars, clauses


@given(small_cnf())
@settings(max_examples=40, deadline=None)
def test_cdcl_matches_brute_force(problem):
    num_vars, clauses = problem
    solver = CDCLSolver()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()

    satisfiable = False
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = dict(zip(range(1, num_vars + 1), bits))
        if all(
            any(assignment[abs(l)] if l > 0 else not assignment[abs(l)] for l in clause)
            for clause in clauses
        ):
            satisfiable = True
            break
    assert (result is SolverResult.SAT) == satisfiable
    if result is SolverResult.SAT:
        model = solver.model()
        assert all(
            any(model[abs(l)] if l > 0 else not model[abs(l)] for l in clause)
            for clause in clauses
        )


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_pb_encoding_never_admits_overweight_models(terms, bound):
    # The session's bound ladder admits a fixed assignment of the term
    # literals under ``F <= bound`` exactly when its weight is at most bound.
    cnf = CNF()
    literals = [cnf.new_var() for _ in terms]
    weights = [weight for weight, _ in terms]
    session = SolveSession(cnf, list(zip(weights, literals)))
    fixed = [lit if on else -lit for lit, (_, on) in zip(literals, terms)]
    total = sum(weight for weight, on in terms if on)
    outcome = session.solve_with_assumptions(fixed, bound=bound)
    assert (outcome is SolverResult.SAT) == (total <= bound)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_exactly_one_models_have_exactly_one(count):
    cnf = CNF()
    literals = [cnf.new_var() for _ in range(count)]
    exactly_one(cnf, literals)
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    assert solver.solve() is SolverResult.SAT
    model = solver.model()
    assert sum(1 for lit in literals if model[lit]) == 1


# ---------------------------------------------------------------------------
# Circuit round trips and end-to-end mapping invariants
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_qasm_round_trip_preserves_gates(num_qubits, num_single, num_cnots, seed):
    circuit = random_clifford_t_circuit(num_qubits, num_single, num_cnots, seed=seed)
    parsed = parse_qasm(to_qasm(circuit))
    assert parsed.num_qubits == circuit.num_qubits
    assert [g.name for g in parsed] == [g.name for g in circuit]
    assert [g.qubits for g in parsed] == [g.qubits for g in circuit]


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_dp_mapping_is_always_compliant_and_equivalent(num_qubits, num_cnots, seed):
    circuit = random_clifford_t_circuit(num_qubits, 2, num_cnots, seed=seed)
    result = DPMapper(ibm_qx4()).map(circuit)
    assert verify_result(result, ibm_qx4()).compliant
    assert result_is_equivalent(result)
    # The reported objective always matches the reconstructed added cost.
    assert result.objective == result.added_cost


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
def test_heuristic_never_beats_the_exact_minimum(num_qubits, num_cnots, seed):
    circuit = random_clifford_t_circuit(num_qubits, 1, num_cnots, seed=seed)
    exact = DPMapper(ibm_qx4()).map(circuit)
    heuristic = StochasticSwapMapper(ibm_qx4(), trials=2, seed=seed).map(circuit)
    assert heuristic.added_cost >= exact.added_cost
    assert verify_result(heuristic, ibm_qx4()).compliant


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=8, deadline=None)
def test_dp_minimum_is_invariant_under_device_choice_of_line(num_qubits, num_cnots, seed):
    # Mapping to a bidirectional line never needs direction fixes, so the
    # added cost is a multiple of the SWAP cost.
    circuit = random_clifford_t_circuit(num_qubits, 0, num_cnots, seed=seed)
    line = linear_architecture(4, bidirectional=True)
    result = DPMapper(line).map(circuit)
    assert result.added_cost % 7 == 0

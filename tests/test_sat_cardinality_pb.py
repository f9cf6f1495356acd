"""Unit and exhaustive tests for the cardinality encodings and the
objective-bound ladder of :class:`~repro.sat.session.SolveSession`."""

import itertools
import random

import pytest

from repro.sat.cardinality import (
    at_most_one_pairwise,
    at_most_one_sequential,
    exactly_one,
)
from repro.sat.cnf import CNF
from repro.sat.session import SolveSession, evaluate_pb
from repro.sat.solver import SolverResult


def count_models_projected(cnf, projection_vars):
    """Enumerate models of *cnf* projected onto *projection_vars* by brute force."""
    solutions = set()
    all_vars = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(all_vars)):
        assignment = dict(zip(all_vars, bits))
        if cnf.evaluate(assignment):
            solutions.add(tuple(assignment[v] for v in projection_vars))
    return solutions


class TestAtMostOne:
    @pytest.mark.parametrize("encode", ["pairwise", "sequential"])
    @pytest.mark.parametrize("count", [2, 3, 5, 6])
    def test_projected_models_match_semantics(self, encode, count):
        cnf = CNF()
        literals = [cnf.new_var() for _ in range(count)]
        if encode == "pairwise":
            at_most_one_pairwise(cnf, literals)
        else:
            at_most_one_sequential(cnf, literals)
        models = count_models_projected(cnf, literals)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=count)
            if sum(bits) <= 1
        }
        assert models == expected

    def test_exactly_one_semantics(self):
        cnf = CNF()
        literals = [cnf.new_var() for _ in range(4)]
        exactly_one(cnf, literals)
        models = count_models_projected(cnf, literals)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=4)
            if sum(bits) == 1
        }
        assert models == expected

    def test_exactly_one_empty_raises(self):
        with pytest.raises(ValueError):
            exactly_one(CNF(), [])

    def test_exactly_one_unknown_encoding(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            exactly_one(cnf, [cnf.new_var()], encoding="magic")


def admits(session, literals, bits, bound):
    """Whether the ladder admits the term assignment *bits* under ``F <= bound``."""
    fixed = [literal if bit else -literal for literal, bit in zip(literals, bits)]
    outcome = session.solve_with_assumptions(fixed, bound=bound)
    return outcome is SolverResult.SAT


class TestPseudoBoolean:
    @pytest.mark.parametrize(
        "weights,bound",
        [
            ([3, 5, 7], 7),
            ([3, 5, 7], 8),
            ([1, 1, 1, 1], 2),
            ([4, 4, 4], 0),
            ([2, 3, 4, 5], 6),
        ],
    )
    def test_projected_models_match_semantics(self, weights, bound):
        cnf = CNF()
        literals = [cnf.new_var() for _ in range(len(weights))]
        session = SolveSession(cnf, list(zip(weights, literals)))
        for bits in itertools.product([False, True], repeat=len(weights)):
            weight = sum(w for w, b in zip(weights, bits) if b)
            assert admits(session, literals, bits, bound) == (weight <= bound)

    def test_trivially_satisfied_bound_adds_nothing(self):
        cnf = CNF()
        literals = [cnf.new_var() for _ in range(3)]
        session = SolveSession(cnf, [(1, lit) for lit in literals])
        assert session.selector(10) is None
        assert session.statistics["bound_clauses_added"] == 0

    def test_negative_weight_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            SolveSession(cnf, [(-1, cnf.new_var())])

    def test_negative_bound_rejected(self):
        cnf = CNF()
        session = SolveSession(cnf, [(1, cnf.new_var())])
        with pytest.raises(ValueError):
            session.selector(-1)

    def test_zero_weight_terms_ignored(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        session = SolveSession(cnf, [(0, a), (5, b)])
        assert session.solve_with_assumptions([a], bound=3) is SolverResult.SAT

    def test_evaluate_pb_handles_negative_literals(self):
        assert evaluate_pb([(3, 1), (5, -2)], {1: True, 2: False}) == 8
        assert evaluate_pb([(3, 1), (5, -2)], {1: False, 2: True}) == 0

    def test_with_solver_enforces_bound(self):
        cnf = CNF()
        literals = [cnf.new_var() for _ in range(4)]
        weights = [7, 7, 4, 4]
        # Force the two cheap literals true, then bound the sum below 11+7.
        session = SolveSession(cnf, list(zip(weights, literals)))
        outcome = session.solve_with_assumptions(literals[2:], bound=15)
        assert outcome is SolverResult.SAT
        model = session.model()
        total = sum(w for w, lit in zip(weights, literals) if model[lit])
        assert total <= 15


class TestLadderPropagation:
    """Assuming a bound refutes infeasible term sets by propagation alone.

    The ladder's low edge is the binary ``node -> low``, so the two-clause
    BDD encoding is generalized arc consistent for ``F <= bound`` (Abío et
    al., "A New Look at BDDs for Pseudo-Boolean Constraints", JAIR 2012).
    """

    @staticmethod
    def _search(session):
        stats = session.solver.statistics
        return stats["decisions"], stats["conflicts"]

    def test_infeasible_term_sets_need_no_search(self):
        rng = random.Random(2012)
        refuted = 0
        for _ in range(200):
            cnf = CNF()
            weights = [rng.randint(1, 9) for _ in range(rng.randint(3, 7))]
            literals = [cnf.new_var() for _ in weights]
            session = SolveSession(cnf, list(zip(weights, literals)))
            bound = rng.randint(0, sum(weights) - 1)
            chosen = [
                index for index in range(len(weights)) if rng.random() < 0.6
            ]
            if sum(weights[index] for index in chosen) <= bound:
                continue
            rng.shuffle(chosen)
            root = session.selector(bound)
            before = self._search(session)
            outcome = session.solve_with_assumptions(
                [root] + [literals[index] for index in chosen]
            )
            assert outcome is SolverResult.UNSAT
            assert self._search(session) == before, (weights, bound, chosen)
            refuted += 1
        assert refuted > 100

    def test_root_falsifies_every_term_heavier_than_the_bound(self):
        rng = random.Random(22)
        for _ in range(50):
            cnf = CNF()
            weights = [rng.randint(1, 9) for _ in range(rng.randint(2, 7))]
            literals = [cnf.new_var() for _ in weights]
            session = SolveSession(cnf, list(zip(weights, literals)))
            bound = rng.randint(0, max(weights) - 1)
            root = session.selector(bound)
            for weight, literal in zip(weights, literals):
                if weight <= bound:
                    continue
                # The root alone propagates -literal, so the literal's own
                # assumption fails before any search, blamed on the root.
                before = self._search(session)
                outcome = session.solve_with_assumptions([root, literal])
                assert outcome is SolverResult.UNSAT
                assert self._search(session) == before
                assert set(session.last_core()) == {root, literal}

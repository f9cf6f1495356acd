"""Exact counter pins for the subset sweep of :meth:`SATMapper.map`.

The sweep's bookkeeping (family planning, the DP seed and the cold start
beyond DP's state limit, pruning, closure, clause sharing, the member
re-solve and the stored-artifact tier) decides which solver calls run, with
which bounds and which imported clauses.  These pins hold the resulting counters fixed: a change to that bookkeeping which
moves any of them has changed the search, not just the code.

The counters are deterministic (the CDCL solver has no randomness), so the
figures are exact, not ceilings.  ``REPRO_CHECK_IMPORTS`` is removed for
every test, because under it a family closure runs a solver probe.
"""

import pytest

from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact.encoding import clear_skeleton_cache
from repro.exact import sat_mapper
from repro.exact.sat_mapper import SATMapper
from repro.service.store import ArtifactCache, ResultStore

#: Pinned statistics, in the order of each pin tuple after ``added_cost``.
KEYS = (
    "solver_conflicts",
    "solver_iterations",
    "families_total",
    "families_pruned",
    "families_closed",
    "subsets_solved",
    "family_reuses",
    "clauses_exported",
    "clauses_imported",
    "artifact_hits",
    "artifact_bounds_used",
    "artifact_clauses_imported",
    "families_dp_seeded",
)

#: ex-1_166 on grid8, subset sweep, no store: the cold row of the warm tests.
GRID8_COLD = (15, 275, 3, 8, 5, 0, 3, 6, 55, 35, 0, 0, 0, 2)


@pytest.fixture(autouse=True)
def _plain_sweep(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
    clear_skeleton_cache()


def _pins(result):
    return (result.added_cost,) + tuple(result.statistics[key] for key in KEYS)


def _ex_1_166():
    return benchmark_circuit("ex-1_166")


@pytest.mark.parametrize(
    "options,expected",
    [
        ({}, (8, 29, 1, 3, 2, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
        # A tiny conflict budget leaves families inconclusive, so later
        # members re-solve on their family's live session.
        ({"conflict_limit": 5}, (8, 25, 6, 3, 0, 0, 6, 0, 1, 0, 0, 0, 0, 1)),
    ],
    ids=["default", "conflict-limit-5"],
)
def test_qx4_subset_sweep(options, expected):
    result = SATMapper(ibm_qx4(), use_subsets=True, **options).map(_ex_1_166())
    assert _pins(result) == expected


def test_grid8_subset_sweep():
    result = SATMapper(sweep_grid8(), use_subsets=True).map(_ex_1_166())
    assert _pins(result) == GRID8_COLD


def test_grid8_member_resolve():
    result = SATMapper(sweep_grid8(), use_subsets=True, conflict_limit=5).map(
        _ex_1_166()
    )
    assert _pins(result) == (15, 80, 16, 8, 0, 0, 16, 0, 38, 37, 0, 0, 0, 2)


def test_grid8_beyond_the_dp_limit(monkeypatch):
    # With no family inside DP's state limit every family starts cold.
    monkeypatch.setattr(sat_mapper, "MAX_MAPPING_STATES", 0)
    result = SATMapper(sweep_grid8(), use_subsets=True).map(_ex_1_166())
    assert _pins(result) == (
        15, 770, 15, 8, 5, 0, 3, 6, 83, 51, 0, 0, 0, 0
    )


class TestFullDevice:
    def _map(self, **kwargs):
        return SATMapper(ibm_qx4()).map(paper_example_cnot_skeleton(), **kwargs)

    def test_cold(self):
        # DP's schedule meets the structural lower bound: closed unsolved.
        assert _pins(self._map()) == (
            4, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1
        )

    def test_upper_bound(self):
        assert _pins(self._map(upper_bound=6)) == (
            4, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1
        )


class TestStoredArtifacts:
    def _map(self, store, **options):
        mapper = SATMapper(sweep_grid8(), use_subsets=True, **options)
        return mapper.map(_ex_1_166(), artifacts=ArtifactCache(store))

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "artifacts.sqlite")
        assert _pins(self._map(store)) == GRID8_COLD
        assert store.artifact_rows() == (3, 1715)
        assert _pins(self._map(store)) == (
            15, 0, 0, 8, 6, 2, 2, 3, 0, 0, 3, 3, 0, 2
        )
        assert store.artifact_rows() == (3, 1715)

    def test_budgeted_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "artifacts.sqlite")
        assert _pins(self._map(store, conflict_limit=20)) == (
            15, 176, 10, 8, 4, 0, 10, 1, 23, 18, 0, 0, 0, 2
        )
        assert _pins(self._map(store)) == (
            15, 232, 1, 8, 6, 1, 2, 3, 29, 0, 3, 2, 8, 2
        )

#!/usr/bin/env python
"""Solver micro-benchmarks: branching-design justification and propagation.

Not collected by the CI benchmark job (which only picks up ``bench_*.py``);
run it by hand.  Three sections:

``branching``
    The measured-churn justification for the indexed VSIDS order heap that
    replaced the linear argmax scan.  PR 5 found a *naive* lazy heap slower
    than the scan it was meant to beat, so this benchmark races three
    decision-identical branchers on a real mapping instance:

    * ``linear-scan`` — the original ``O(num_vars)`` argmax over all
      unassigned variables on every decision;
    * ``lazy-heapq`` — the classic "push on every bump, filter stale
      entries on pop" design built on :mod:`heapq`.  Every activity bump
      and every unassignment pushes a fresh ``(-activity, var)`` entry, so
      the heap grows with the *bump* count (tens of bumps per conflict)
      and pops wade through stale entries;
    * ``indexed-heap`` — the shipped design: one entry per unassigned
      variable, a position index so a bump sifts the entry in place, and
      re-insertion only when backtracking actually unassigns a decision.

    All three compute the exact same argmax (max activity, ties to the
    lowest variable index), which the harness *asserts* via identical
    conflict/decision counts and identical proven minima.  The churn
    profile (bumps, picks, stale pops, re-inserts per conflict) is printed
    first — it is the measurement the indexed design is tuned against:
    bumps dominate picks by an order of magnitude, so the winning design
    is the one whose *bump* path is cheapest (an in-place sift), not the
    one with the cheapest pop.

``propagation``
    End-to-end propagation throughput (propagations/second) of the flat
    clause-arena hot path on the same instance, selectable per backend
    (``--backend auto|pure|compiled``).  This is the number behind the
    props/sec acceptance gate tracked in ``benchmarks/BENCH_sweep.json``.

``artifacts``
    Per-stage overhead of the solve-artifact round trip (PR 9): export the
    live session's shared-layer learned clauses, re-base them to template
    numbering (``clauses_to_template``), persist and re-load them through a
    disk-backed ``ResultStore`` artifact row, build the template→target
    translation table (``template_clause_remap``) and import into a fresh
    same-skeleton session.  Real solves export few shared-layer clauses, so
    the batch is padded to ``--clauses`` (default 1000) by *weakening* the
    real exports — a superset of an implied clause is still implied, so
    every padded clause remains legal warm-start material.  Each stage is
    reported as wall time and normalised per 1k clauses, keeping the
    seeding cost visible next to propagation throughput.

Usage::

    PYTHONPATH=src python benchmarks/micro_solver.py branching
    PYTHONPATH=src python benchmarks/micro_solver.py propagation --backend pure
    PYTHONPATH=src python benchmarks/micro_solver.py branching \
        --circuit ham3_102 --device qx4 --repeat 3
    PYTHONPATH=src python benchmarks/micro_solver.py artifacts --clauses 2000
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import repro.sat.session as session_module
from repro.arch.cache import shared_permutation_table
from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import benchmark_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.exact.encoding import build_encoding, clear_skeleton_cache
from repro.exact.sweep import (
    artifact_key,
    clauses_to_template,
    template_clause_remap,
)
from repro.sat._backend import available_backends, backend_module
from repro.sat._solver_core import CDCLSolver as _PureCDCL
from repro.sat.optimize import OptimizingSolver
from repro.service.store import ResultStore

_DEVICES = {"qx4": ibm_qx4, "grid8": sweep_grid8}


# ----------------------------------------------------------------------
# Brancher variants (decision-identical to the shipped indexed heap)
# ----------------------------------------------------------------------
class LinearScanSolver(_PureCDCL):
    """The pre-overhaul brancher: argmax scan over every variable.

    ``_bump_var`` and ``_backtrack`` skip all heap maintenance so the
    variant pays exactly the costs the original solver paid — a fair race.
    """

    def _bump_var(self, var: int) -> None:
        act = self._activity
        value = act[var] + self._var_inc
        act[var] = value
        if value > 1e100:
            for v in range(1, self._num_vars + 1):
                act[v] *= 1e-100
            self._var_inc *= 1e-100

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        reasons = self._reason
        for literal in reversed(trail[target:]):
            var = literal if literal > 0 else -literal
            assign[var] = None
            reasons[var] = 0
        del trail[target:]
        del self._trail_lim[level:]
        self._propagation_head = len(trail)

    def _pick_branch_variable(self) -> Optional[int]:
        assign = self._assign
        activity = self._activity
        best_var = None
        best_act = -1.0
        for var in range(1, self._num_vars + 1):
            if assign[var] is None and activity[var] > best_act:
                best_act = activity[var]
                best_var = var
        return best_var


class LazyHeapSolver(_PureCDCL):
    """The naive lazy-heapq brancher PR 5 measured as a regression.

    Entries are ``(-activity, var)`` tuples; min-heap order therefore
    yields the highest activity first with ties broken toward the lowest
    variable — the same argmax as the other variants.  An entry is valid
    iff its variable is unassigned *and* the stored activity still equals
    the variable's current activity (a bump while buried pushes a fresh
    entry above the stale one).  Rescales invalidate every stored entry at
    once, so the heap is reseeded from the unassigned variables; variables
    assigned at rescale time re-enter with their current activity when
    backtracking unassigns them.
    """

    def __init__(self, cnf=None):
        self._lazy = []
        super().__init__(cnf)

    def _ensure_var(self, var: int) -> None:
        num = self._num_vars
        super()._ensure_var(var)
        lazy = self._lazy
        act = self._activity
        for v in range(num + 1, self._num_vars + 1):
            heapq.heappush(lazy, (-act[v], v))

    def _bump_var(self, var: int) -> None:
        act = self._activity
        value = act[var] + self._var_inc
        act[var] = value
        if value > 1e100:
            for v in range(1, self._num_vars + 1):
                act[v] *= 1e-100
            self._var_inc *= 1e-100
            assign = self._assign
            self._lazy = [
                (-act[v], v)
                for v in range(1, self._num_vars + 1)
                if assign[v] is None
            ]
            heapq.heapify(self._lazy)
        else:
            heapq.heappush(self._lazy, (-value, var))

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        reasons = self._reason
        act = self._activity
        lazy = self._lazy
        for literal in reversed(trail[target:]):
            var = literal if literal > 0 else -literal
            assign[var] = None
            reasons[var] = 0
            heapq.heappush(lazy, (-act[var], var))
        del trail[target:]
        del self._trail_lim[level:]
        self._propagation_head = len(trail)

    def _pick_branch_variable(self) -> Optional[int]:
        lazy = self._lazy
        assign = self._assign
        act = self._activity
        while lazy:
            neg_act, var = heapq.heappop(lazy)
            if assign[var] is None and -neg_act == act[var]:
                return var
        return None


class ChurnCountingSolver(_PureCDCL):
    """The shipped indexed heap, instrumented to measure branching churn."""

    def __init__(self, cnf=None):
        self.churn = {
            "bumps": 0,
            "rescales": 0,
            "picks": 0,
            "stale_pops": 0,
            "reinserts": 0,
            "unassignments": 0,
        }
        super().__init__(cnf)

    def _bump_var(self, var: int) -> None:
        churn = self.churn
        churn["bumps"] += 1
        if self._activity[var] + self._var_inc > 1e100:
            churn["rescales"] += 1
        super()._bump_var(var)

    def _pick_branch_variable(self) -> Optional[int]:
        assign = self._assign
        heap = self._heap
        churn = self.churn
        churn["picks"] += 1
        while heap:
            var = self._heap_pop()
            if assign[var] is None:
                return var
            churn["stale_pops"] += 1
        return None

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        self.churn["unassignments"] += len(self._trail) - target
        before = len(self._heap)
        super()._backtrack(level)
        self.churn["reinserts"] += len(self._heap) - before


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _build_instance(circuit_name: str, device_name: str):
    """A *fresh* encoding of the instance.

    Sessions allocate bound-encoding auxiliary variables from the formula's
    own pool, so an encoding must never be shared between timed runs — a
    reused CNF would grow run over run and skew both counters and timings.
    """
    clear_skeleton_cache()
    device = _DEVICES[device_name]()
    if circuit_name == "paper":
        circuit = paper_example_cnot_skeleton()
    else:
        circuit = benchmark_circuit(circuit_name)
    encoding = build_encoding(
        circuit.cnot_pairs(),
        circuit.num_qubits,
        device,
        permutation_table=shared_permutation_table(device),
    )
    return encoding


def _minimize_with(solver_class, circuit_name: str, device_name: str):
    """Run the full optimisation descent with *solver_class* as the CDCL core.

    Returns ``(wall_seconds, result, session)``; the encoding build is kept
    outside the timed region.
    """
    encoding = _build_instance(circuit_name, device_name)
    original = session_module.CDCLSolver
    session_module.CDCLSolver = solver_class
    try:
        optimizer = OptimizingSolver(encoding.cnf, encoding.objective)
        session = optimizer.make_session()
        start = time.perf_counter()
        # Linear descent: the workload the recorded churn figures describe.
        result = optimizer.minimize(strategy="linear", session=session)
        wall = time.perf_counter() - start
    finally:
        session_module.CDCLSolver = original
    return wall, result, session


def run_branching(args) -> int:
    probe = _build_instance(args.circuit, args.device)
    print(
        f"instance: {args.circuit} on {args.device} "
        f"({probe.cnf.num_vars} vars, {len(probe.cnf.clauses)} clauses)"
    )

    # Churn profile first: the measurement the design is chosen against.
    _, profile_result, profile_session = _minimize_with(
        ChurnCountingSolver, args.circuit, args.device
    )
    churn = profile_session.solver.churn
    conflicts = max(1, profile_result.conflicts)
    print(
        f"\nchurn profile over {profile_result.conflicts} conflicts "
        f"(proven minimum {profile_result.objective}):"
    )
    for key, value in churn.items():
        print(f"  {key:>14}: {value:>9}  ({value / conflicts:8.2f} per conflict)")
    print(
        "  -> bumps outnumber picks "
        f"{churn['bumps'] / max(1, churn['picks']):.1f}x and the lazy design "
        "pays a heapq push per bump AND per unassignment; the indexed heap "
        f"sifts bumps in place and re-inserts only the "
        f"{churn['reinserts'] / conflicts:.0f}/conflict variables actually "
        "missing from the heap.\n"
    )

    variants = [
        ("linear-scan", LinearScanSolver),
        ("lazy-heapq", LazyHeapSolver),
        ("indexed-heap", _PureCDCL),
    ]
    reference = None
    print(f"{'variant':>14} {'wall (s)':>10} {'conflicts':>10} {'decisions':>10}")
    failures = 0
    for name, solver_class in variants:
        best_wall = None
        for _ in range(max(1, args.repeat)):
            wall, result, session = _minimize_with(
                solver_class, args.circuit, args.device
            )
            if best_wall is None or wall < best_wall:
                best_wall = wall
        decisions = session.solver.statistics["decisions"]
        fingerprint = (result.objective, result.conflicts, decisions)
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            failures += 1
            print(
                f"  DIVERGENCE: {name} produced {fingerprint}, "
                f"expected {reference}",
                file=sys.stderr,
            )
        print(
            f"{name:>14} {best_wall:>10.4f} {result.conflicts:>10} "
            f"{decisions:>10}"
        )
    if failures:
        print("branching variants diverged; see above", file=sys.stderr)
        return 1
    print(
        "\nall variants: identical minima, conflicts and decisions "
        "(decision-identical by construction, asserted above)."
    )
    return 0


def run_propagation(args) -> int:
    if args.backend == "auto":
        backend_names = [available_backends()[-1]]
    else:
        backend_names = [args.backend]
    probe = _build_instance(args.circuit, args.device)
    print(
        f"instance: {args.circuit} on {args.device} "
        f"({probe.cnf.num_vars} vars, {len(probe.cnf.clauses)} clauses)"
    )
    print(f"{'backend':>10} {'wall (s)':>10} {'propagations':>13} {'props/sec':>12}")
    status = 0
    for name in backend_names:
        module = backend_module(name)
        if module is None:
            print(f"{name:>10}  unavailable (extension not built)")
            status = 1
            continue
        best = None
        for _ in range(max(1, args.repeat)):
            wall, result, session = _minimize_with(
                module.CDCLSolver, args.circuit, args.device
            )
            propagations = session.solver.statistics["propagations"]
            if best is None or wall < best[0]:
                best = (wall, propagations)
        wall, propagations = best
        print(
            f"{name:>10} {wall:>10.4f} {propagations:>13} "
            f"{propagations / wall:>12.0f}"
        )
    return status


# ----------------------------------------------------------------------
# Artifact round-trip (solve-artifact warm-start overhead)
# ----------------------------------------------------------------------
def _weakened_batch(exported, x_var_limit: int, count: int):
    """Pad real exported clauses to *count* by weakening.

    Any superset of an implied clause is implied, so appending two fresh
    x-block literals to a real export yields a distinct clause that is
    still legal warm-start material — the batch exercises the exact code
    paths (template rebase, store row, remap, import) with realistic
    literal distributions at a controlled size.
    """
    batch = [list(clause) for clause in exported[:count]]
    if not exported:
        return batch
    bases = itertools.cycle(exported)
    pairs = itertools.combinations(range(1, x_var_limit + 1), 2)
    for first, second in pairs:
        if len(batch) >= count:
            break
        base = next(bases)
        used = {abs(literal) for literal in base}
        if first in used or second in used:
            continue
        batch.append(list(base) + [-first, -second])
    return batch


def run_artifacts(args) -> int:
    encoding = _build_instance(args.circuit, args.device)
    device = _DEVICES[args.device]()
    if args.circuit == "paper":
        circuit = paper_example_cnot_skeleton()
    else:
        circuit = benchmark_circuit(args.circuit)
    gates = circuit.cnot_pairs()
    spots = list(range(len(gates)))

    # One real solve accumulates the learned clauses the export draws from.
    optimizer = OptimizingSolver(encoding.cnf, encoding.objective)
    session = optimizer.make_session()
    result = optimizer.minimize(strategy="linear", session=session)
    print(
        f"instance: {args.circuit} on {args.device} "
        f"({encoding.cnf.num_vars} vars, {len(encoding.cnf.clauses)} clauses, "
        f"minimum {result.objective} in {result.conflicts} conflicts)"
    )

    start = time.perf_counter()
    exported = session.export_learned(var_ok=encoding.is_shared_variable)
    export_wall = time.perf_counter() - start
    if not exported:
        print("no shared-layer clauses exported; nothing to measure")
        return 1
    batch = _weakened_batch(exported, encoding.x_var_limit, args.clauses)
    spot_var_count = encoding.spot_var_end - encoding.spot_var_start
    print(
        f"real export: {len(exported)} shared-layer clauses in "
        f"{export_wall * 1e6:.0f} us; batch padded to {len(batch)} by "
        "weakening (supersets of implied clauses stay implied)\n"
    )

    key = artifact_key(gates, circuit.num_qubits, device, spots)
    repeat = max(1, args.repeat)
    stages = {}

    def _best(stage, thunk):
        best = None
        value = None
        for _ in range(repeat):
            start = time.perf_counter()
            value = thunk()
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        stages[stage] = best
        return value

    template = _best(
        "to_template",
        lambda: clauses_to_template(
            batch, encoding.x_var_limit, encoding.spot_var_start
        ),
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "artifacts.sqlite3")
        payloads = [
            {
                "version": 1,
                "x_var_limit": encoding.x_var_limit,
                "spot_var_count": spot_var_count,
                "clauses": template,
                "bounds": {},
                "schedule": None,
                "objective": None,
            }
            for _ in range(repeat)
        ]
        # A fresh key per repetition: put_artifact merges into existing
        # rows, and a merge over an ever-growing row would not measure the
        # first-write path the sweep actually takes.
        keys = [f"{key}#{index}" for index in range(repeat)]
        puts = iter(range(repeat))
        _best(
            "store_put",
            lambda: store.put_artifact(keys[next(puts)], payloads[0]),
        )
        # Read through a memory-tier-less handle: the fresh-worker path
        # (``ArtifactCache`` reopens the database the same way), so the
        # JSON parse + SQLite read are actually on the clock.
        reader = ResultStore(store.path, max_memory_entries=0)
        loaded = _best("store_get", lambda: reader.get_artifact(keys[0]))
        assert loaded is not None and len(loaded["clauses"]) == len(batch)

    remap = _best(
        "remap_build",
        lambda: template_clause_remap(
            encoding.x_var_limit, spot_var_count, encoding
        ),
    )

    # A fresh same-skeleton session per repetition: imports dedupe, so a
    # second import into the same solver would measure the dedupe path.
    targets = []
    for _ in range(repeat):
        fresh = _build_instance(args.circuit, args.device)
        targets.append(OptimizingSolver(fresh.cnf, fresh.objective).make_session())
    sessions = iter(targets)
    imported = _best(
        "import",
        lambda: next(sessions).import_clauses(
            [tuple(clause) for clause in loaded["clauses"]], remap=remap
        ),
    )

    per_1k = 1000.0 / len(batch)
    print(f"{'stage':>12} {'wall (ms)':>10} {'ms per 1k clauses':>18}")
    for stage, wall in stages.items():
        print(f"{stage:>12} {wall * 1e3:>10.3f} {wall * 1e3 * per_1k:>18.3f}")
    total = sum(stages.values())
    print(f"{'round-trip':>12} {total * 1e3:>10.3f} {total * 1e3 * per_1k:>18.3f}")
    print(
        f"\nimported {imported}/{len(batch)} clauses into a fresh "
        "same-skeleton session (best of "
        f"{repeat} repetition{'s' if repeat != 1 else ''} per stage)."
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "section", choices=("branching", "propagation", "artifacts"),
        help="which micro-benchmark to run",
    )
    parser.add_argument(
        "--circuit", default="paper",
        help="instance: 'paper' or a benchmark circuit name (default: paper)",
    )
    parser.add_argument(
        "--device", default="qx4", choices=sorted(_DEVICES),
        help="target architecture (default: qx4)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timing repetitions; the best wall time is reported (default: 3)",
    )
    parser.add_argument(
        "--backend", default="auto", choices=("auto", "pure", "compiled"),
        help="propagation section only: solver backend (default: auto)",
    )
    parser.add_argument(
        "--clauses", type=int, default=1000,
        help="artifacts section only: batch size the round trip is "
        "measured on (default: 1000)",
    )
    args = parser.parse_args(argv)
    if args.section == "branching":
        return run_branching(args)
    if args.section == "artifacts":
        return run_artifacts(args)
    return run_propagation(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Perf smoke: solver iteration counts and sweep conflicts must not regress.

Two benchmark sections, both deterministic (the pure-Python CDCL solver's
behaviour is a function of the formula alone, so the comparisons are exact —
no timing calibration needed):

**Engine configs** — the paper's worked example (Fig. 1, minimal added cost 4
on IBM QX4) through the SAT engine, plus the full optimizer
strategy matrix (linear / core-guided, seeded and unseeded, plus a
model warm start replaying a previously solved schedule).  The mappers start
the example at DP's schedule, which meets its structural lower bound, so
they decide it without a solver call; the strategy matrix (the ``sat`` …
``sat_model_seeded`` rows) therefore runs ``OptimizingSolver.minimize`` on
the example's full-device encoding, where the descents still search.
Every pinned row names its descent explicitly (``linear`` where the row
predates the core-guided default), so a change of library default cannot
move its pin; the ``sat_default`` row measures the library default itself.
Per-config ``solver_iterations`` and ``solver_conflicts`` are compared
against the committed baseline (``benchmarks/perf_smoke_baseline.json``):
the proven minimum must match exactly, neither count may exceed its ceiling
(``max_iterations``, ``max_conflicts``), and the configs listed under
``strict_improvement_vs_pr2`` / ``strict_improvement_vs_linear`` must stay
strictly below their reference counts.

**Sweep configs** — subset sweeps (paper example + Table-1 3-qubit circuits
on QX4 and on the 8-qubit ``sweep_grid8`` benchmark device) exercising the
sweep-scale machinery: family ordering, lower-bound family pruning and
cross-family clause sharing, with every family seeded by DP's schedule.
These rows run ``linear`` descent, so they guard sharing and pruning alone;
the ``*_qx4_default`` rows repeat the QX4 sweeps under the library-default
descent, plus the four-qubit ``4gt11_84`` of the exact-qx4 benchmark.  Sweep-level *conflict totals*
are pinned against the baseline, the QX4 sweeps must additionally stay strictly below
the pre-sweep-sharing (PR 4) conflict counts recorded in
``pr4_reference_conflicts``, and the three-qubit Table-1 QX4 sweeps must
prune at least one family without solving it.

**Split configs** — windowed big-device mapping (``sat_split``): fixed-seed
random circuits on ``ibm_qx5`` (16 qubits) and ``ibm_tokyo`` (20 qubits),
each solved window-exact and stitched by the routed synthesizer — the
devices beyond the permutation-table wall.  The mapped results are
validated (coupling compliance + cost bookkeeping) and their wall numbers
ride along in the recorded history.

**Artifact configs** — the warm-start round trip of the solve-artifact
store: the ``3_17_13`` sweep on ``sweep_grid8`` runs twice against one
shared (temporary) :class:`~repro.service.store.ResultStore`.  The cold run
populates the artifact table (learned clauses and per-family lower bounds
keyed by encoding skeleton); the warm run must hit at least one artifact
row, close at least one family whose stored bound meets DP's schedule, and
finish with *strictly fewer* sweep conflicts than the cold run — the guard
that keeps the service's learning loop bought.
Without ``REPRO_CHECK_IMPORTS`` (which re-proves every closure with a
solver probe) the warm run must spend no solver conflicts at all.
``--warm-start-only`` runs just this section (the CI ``warm-start`` job).

**Exact-table pin** — after clearing the process caches, small-device flows
(paper example on QX4 and on ``sweep_grid8``) are re-run and the
``synthesizer_routed_selected`` counter must stay zero: devices of at most
8 qubits must keep going through the provably minimal permutation table,
bit-identical to the pre-synthesis behaviour.

``--record`` additionally appends a schema-versioned entry — per-config
wall seconds, conflicts, propagations, clauses shared/imported, families
pruned — to ``benchmarks/BENCH_sweep.json``, the repository's committed
wall-clock trajectory.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --baseline benchmarks/perf_smoke_baseline.json \
        --output perf-smoke.json --record
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from repro.arch.cache import cache_stats, clear_caches, shared_permutation_table
from repro.arch.devices import ibm_qx4, ibm_qx5, ibm_tokyo, sweep_grid8
from repro.benchlib.generators import benchmark_circuit, random_cnot_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.circuit.circuit import QuantumCircuit
from repro.exact.encoding import build_encoding, clear_skeleton_cache
from repro.exact.sat_mapper import SATMapper
from repro.exact.splitting import SplitSATMapper
from repro.sat.optimize import DEFAULT_OPTIMIZER, OptimizingSolver
from repro.sat.solver import solver_backend_provenance


#: Seed bound for the *_seeded configs (the known minimum of the example).
SEED_BOUND = 4

#: Schema version of the entries appended to BENCH_sweep.json.
#: v2 adds the ``environment`` stamp (python, platform, solver backend,
#: git revision) so wall-clock history stays attributable across machines
#: and backends; v3 adds the ``split_configs`` rows (windowed ``sat_split``
#: on ibm_qx5 and ibm_tokyo); v4 adds the ``artifact_configs`` cold/warm
#: rows (grid8 sweep twice against one shared solve-artifact store, with
#: the seeding hit counters) and the fixed-seed ``corpus_*`` sweep rows
#: from the :mod:`repro.benchlib` generators; v5 drops the sharing/pruning
#: ablation (``ablation_configs``, ``ablation_wall_seconds_total``,
#: ``ablation_conflicts_total``, ``wall_saving_percent``), since the sweep
#: has no switch to turn either off.  Earlier entries remain valid.
BENCH_SWEEP_SCHEMA = 5


class _Descent:
    """One objective descent on a circuit's full-device QX4 encoding, cold.

    Stands in for a mapper in :func:`measure`: :meth:`map` returns an object
    with ``added_cost``, ``statistics`` and ``schedule.mappings``.
    """

    def __init__(self, strategy: str):
        self.strategy = strategy

    def map(self, circuit, upper_bound=None, initial_model=None,
            initial_objective=None):
        coupling = ibm_qx4()
        gates, spots = SATMapper(coupling).cnot_instance(circuit)
        encoding = build_encoding(
            gates, circuit.num_qubits, coupling, permutation_spots=spots
        )
        result = OptimizingSolver(encoding.cnf, encoding.objective).minimize(
            strategy=self.strategy,
            upper_bound=upper_bound,
            initial_model=(
                None if initial_model is None
                else encoding.assignment_from_schedule(initial_model)
            ),
            initial_objective=initial_objective,
        )
        return SimpleNamespace(
            added_cost=result.objective,
            statistics=dict(
                result.statistics,
                solver_iterations=result.iterations,
                solver_conflicts=result.conflicts,
            ),
            schedule=SimpleNamespace(
                mappings=encoding.extract_schedule(result.model)
            ),
        )


def _configs():
    """The measured engine configurations, deterministic order.

    Each value is ``(mapper factory, map kwargs)``.  The ``sat`` config runs
    first: ``sat_model_seeded`` replays its schedule as the incumbent model
    through ``OptimizingSolver.minimize(initial_model=...)``, the path DP's
    schedule takes when it seeds a sweep family.
    """
    return {
        "sat": (lambda: _Descent("linear"), {}),
        "sat_core": (lambda: _Descent("core"), {}),
        "sat_linear_seeded": (
            lambda: _Descent("linear"), {"upper_bound": SEED_BOUND}
        ),
        "sat_core_seeded": (
            lambda: _Descent("core"), {"upper_bound": SEED_BOUND}
        ),
        "sat_model_seeded": (lambda: _Descent("linear"), "MODEL_SEED"),
        "sat_subsets": (
            lambda: SATMapper(ibm_qx4(), use_subsets=True, optimizer="linear"),
            {},
        ),
        "sat_default": (lambda: SATMapper(ibm_qx4()), {}),
    }


def _sweep_configs():
    """The subset-sweep benchmark: (architecture factory, circuit factory,
    descent).

    QX4 carries the paper-parity criteria (identical proven minima, strictly
    fewer conflicts than PR 4, at least one family pruned); the 8-qubit
    ``sweep_grid8`` device scales the family count up (8 three-qubit
    families, 18 four-qubit families) so pruning and sharing dominate the
    end-to-end wall clock.
    """
    qx4 = {
        "paper_qx4": (ibm_qx4, paper_example_cnot_skeleton),
        "ex-1_166_qx4": (ibm_qx4, lambda: benchmark_circuit("ex-1_166")),
        "ham3_102_qx4": (ibm_qx4, lambda: benchmark_circuit("ham3_102")),
    }
    rows = {
        **qx4,
        "paper_grid8": (sweep_grid8, paper_example_cnot_skeleton),
        "ex-1_166_grid8": (sweep_grid8, lambda: benchmark_circuit("ex-1_166")),
        "ham3_102_grid8": (sweep_grid8, lambda: benchmark_circuit("ham3_102")),
        "3_17_13_grid8": (sweep_grid8, lambda: benchmark_circuit("3_17_13")),
        # Fixed-seed corpus row from the benchlib generators: a chained
        # random CNOT netlist (MQT-style reversible structure) swept on the
        # 8-qubit grid — the suite's guard that the sweep machinery keeps
        # working off the hand-picked Table-1 circuits too.
        "corpus_rand3x10_grid8": (
            sweep_grid8, lambda: random_cnot_circuit(3, 10, seed=7)
        ),
    }
    configs = {name: (*row, "linear") for name, row in rows.items()}
    # The exact-qx4 benchmark's four-qubit stand-in, under the default
    # descent only (both of its families are solved; none is pruned).
    default_only = {
        "4gt11_84_qx4": (ibm_qx4, lambda: benchmark_circuit("4gt11_84")),
    }
    configs.update(
        (f"{name}_default", (*row, DEFAULT_OPTIMIZER))
        for name, row in {**qx4, **default_only}.items()
    )
    return configs


def _split_circuit(num_qubits: int, num_cnots: int, seed: int, name: str):
    """A fixed-seed random H+CNOT circuit (deterministic across runs)."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits, name)
    for index in range(num_cnots):
        control, target = rng.sample(range(num_qubits), 2)
        if index % 3 == 0:
            circuit.h(control)
        circuit.cx(control, target)
    return circuit


def _split_configs():
    """The windowed big-device benchmark: (architecture, circuit) factories."""
    return {
        "qx5_16q_split": (
            ibm_qx5, lambda: _split_circuit(16, 12, seed=3, name="qx5_16q")
        ),
        "tokyo_20q_split": (
            ibm_tokyo, lambda: _split_circuit(20, 12, seed=2, name="tokyo_20q")
        ),
    }


def measure_splits():
    """Run the windowed ``sat_split`` suite on the big devices.

    Every result is validated (coupling compliance and cost bookkeeping
    recomputed from the mapped gates) — a benchmark row that silently maps
    incorrectly would poison the wall-clock history.
    """
    measurements = {}
    for name, (arch_factory, circuit_factory) in _split_configs().items():
        coupling = arch_factory()
        mapper = SplitSATMapper(
            coupling, window_size=4, qubit_cap=4, optimizer="core"
        )
        gc.collect()
        start = time.monotonic()
        result = mapper.map(circuit_factory())
        elapsed = time.monotonic() - start
        result.validate(coupling)
        stats = result.statistics
        measurements[name] = {
            "added_cost": result.added_cost,
            "split_windows": stats["split_windows"],
            "stitch_swaps_total": stats["stitch_swaps_total"],
            "solver_conflicts": stats["solver_conflicts"],
            "solver_iterations": stats["solver_iterations"],
            "subsets_solved": stats.get("subsets_solved", 0),
            "wall_seconds": round(elapsed, 4),
        }
    return measurements


def check_exact_table_pin():
    """Small devices must keep selecting the exact table, never the router.

    Clears the process-wide caches (and their counters), replays the paper
    example on the two small benchmark devices, and fails when any
    synthesizer selection went to the routed backend — the guarantee that
    ≤8-qubit results stay provably minimal and bit-identical.
    """
    failures = []
    clear_caches()
    circuit = paper_example_cnot_skeleton()
    SATMapper(ibm_qx4()).map(circuit)
    SATMapper(sweep_grid8(), use_subsets=True).map(circuit)
    stats = cache_stats()
    if stats["synthesizer_routed_selected"] != 0:
        failures.append(
            "exact-table pin: small-device flows selected the routed "
            f"synthesizer {stats['synthesizer_routed_selected']} time(s)"
        )
    if stats["synthesizer_table_selected"] < 1:
        failures.append(
            "exact-table pin: no exact-table synthesizer selection recorded"
        )
    return failures


def measure():
    """Map the paper example with every config; returns per-config metrics."""
    circuit = paper_example_cnot_skeleton()
    measurements = {}
    reference_result = None
    for name, (factory, kwargs) in _configs().items():
        if kwargs == "MODEL_SEED":
            assert reference_result is not None, "'sat' must run first"
            kwargs = {
                "initial_model": reference_result.schedule.mappings,
                "initial_objective": reference_result.added_cost,
            }
        start = time.monotonic()
        result = factory().map(circuit, **kwargs)
        elapsed = time.monotonic() - start
        if name == "sat":
            reference_result = result
        measurements[name] = {
            "added_cost": result.added_cost,
            "solver_iterations": result.statistics["solver_iterations"],
            "solver_conflicts": result.statistics["solver_conflicts"],
            "descent_iterations": result.statistics.get("descent_iterations"),
            "cores_found": result.statistics.get("cores_found"),
            "subsets_solved": result.statistics.get("subsets_solved"),
            "family_reuses": result.statistics.get("family_reuses"),
            "wall_seconds": round(elapsed, 4),
        }
    return measurements


def measure_sweeps():
    """Run the subset-sweep suite; returns per-config sweep metrics.

    The per-architecture reconstruction tables are warmed first so the wall
    numbers time the sweep itself, not the process-wide one-off caches; the
    encoding-skeleton cache is cleared per config so every sweep pays its
    own construction.
    """
    for arch_factory in {row[0] for row in _sweep_configs().values()}:
        shared_permutation_table(arch_factory())
    measurements = {}
    for name, (arch_factory, circuit_factory, optimizer) in _sweep_configs().items():
        clear_skeleton_cache()
        mapper = SATMapper(arch_factory(), use_subsets=True, optimizer=optimizer)
        # Collect between configs so one sweep's garbage is not another
        # sweep's pause — wall numbers should time the sweep, not the GC.
        gc.collect()
        start = time.monotonic()
        result = mapper.map(circuit_factory())
        elapsed = time.monotonic() - start
        stats = result.statistics
        measurements[name] = {
            "added_cost": result.added_cost,
            "solver_conflicts": stats["solver_conflicts"],
            "solver_iterations": stats["solver_iterations"],
            "solver_propagations": stats["solver_propagations"],
            "families_total": stats.get("families_total", 0),
            "families_pruned": stats.get("families_pruned", 0),
            "clauses_exported": stats.get("clauses_exported", 0),
            "clauses_imported": stats.get("clauses_imported", 0),
            "wall_seconds": round(elapsed, 4),
        }
    return measurements


def measure_artifacts(circuit_name: str = "3_17_13"):
    """Cold-then-warm sweep against one shared solve-artifact store.

    Both runs map the same circuit on ``sweep_grid8`` with a fresh mapper;
    the only state carried between them is the artifact table of a
    temporary :class:`~repro.service.store.ResultStore` (learned clauses,
    per-family lower bounds and best schedules keyed by encoding
    skeleton).  The warm run's conflict saving is therefore attributable
    to artifact seeding alone.
    """
    from repro.service.store import ArtifactCache, ResultStore

    shared_permutation_table(sweep_grid8())
    measurements = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(ResultStore.at(tmp))
        for phase in ("cold", "warm"):
            clear_skeleton_cache()
            mapper = SATMapper(sweep_grid8(), use_subsets=True, optimizer="linear")
            gc.collect()
            start = time.monotonic()
            result = mapper.map(benchmark_circuit(circuit_name), artifacts=cache)
            elapsed = time.monotonic() - start
            stats = result.statistics
            measurements[phase] = {
                "added_cost": result.added_cost,
                "solver_conflicts": stats["solver_conflicts"],
                "solver_iterations": stats["solver_iterations"],
                "families_pruned": stats.get("families_pruned", 0),
                "families_closed": stats.get("families_closed", 0),
                "artifact_hits": stats.get("artifact_hits", 0),
                "artifact_misses": stats.get("artifact_misses", 0),
                "artifact_clauses_imported": stats.get(
                    "artifact_clauses_imported", 0
                ),
                "artifact_bounds_used": stats.get("artifact_bounds_used", 0),
                "wall_seconds": round(elapsed, 4),
            }
    return measurements


def check_artifacts(measurements):
    """The warm run must hit the store, close a family and beat the cold run.

    Unless ``REPRO_CHECK_IMPORTS`` is set (which re-proves every closure
    with a solver probe), the warm run must spend no solver conflicts.
    """
    failures = []
    cold, warm = measurements["cold"], measurements["warm"]
    if warm["added_cost"] != cold["added_cost"]:
        failures.append(
            "artifacts: warm run changed the proven minimum "
            f"({warm['added_cost']} != {cold['added_cost']})"
        )
    if warm["solver_conflicts"] >= cold["solver_conflicts"]:
        failures.append(
            "artifacts: warm-start conflicts not strictly below the cold "
            f"run ({warm['solver_conflicts']} >= {cold['solver_conflicts']})"
        )
    if warm["families_closed"] < 1:
        failures.append(
            "artifacts: warm run closed no family on a stored bound "
            f"(closed={warm['families_closed']})"
        )
    if not os.environ.get("REPRO_CHECK_IMPORTS") and warm["solver_conflicts"]:
        failures.append(
            "artifacts: warm run spent solver conflicts although its "
            f"stored bounds meet DP's schedules "
            f"({warm['solver_conflicts']} > 0)"
        )
    if warm["artifact_hits"] < 1:
        failures.append(
            "artifacts: warm run recorded no artifact-store hit "
            f"(hits={warm['artifact_hits']})"
        )
    return failures


def check(measurements, baseline):
    """Compare engine-config measurements against the baseline."""
    failures = []
    pr2 = baseline.get("pr2_reference_iterations", {})
    strict = set(baseline.get("strict_improvement_vs_pr2", []))
    strict_linear = set(baseline.get("strict_improvement_vs_linear", []))
    linear_iterations = measurements.get("sat", {}).get("solver_iterations")
    for name, expected in baseline["configs"].items():
        measured = measurements.get(name)
        if measured is None:
            failures.append(f"{name}: configuration was not measured")
            continue
        if measured["added_cost"] != expected["added_cost"]:
            failures.append(
                f"{name}: proven minimum changed "
                f"({measured['added_cost']} != {expected['added_cost']})"
            )
        iterations = measured["solver_iterations"]
        if iterations > expected["max_iterations"]:
            failures.append(
                f"{name}: solver iterations regressed "
                f"({iterations} > baseline {expected['max_iterations']})"
            )
        conflicts = measured["solver_conflicts"]
        if conflicts > expected["max_conflicts"]:
            failures.append(
                f"{name}: solver conflicts regressed "
                f"({conflicts} > baseline {expected['max_conflicts']})"
            )
        if name in strict and name in pr2 and iterations >= pr2[name]:
            failures.append(
                f"{name}: iterations no longer strictly below the PR 2 "
                f"reference ({iterations} >= {pr2[name]})"
            )
        if (
            name in strict_linear
            and linear_iterations is not None
            and iterations >= linear_iterations
        ):
            failures.append(
                f"{name}: iterations no longer strictly below unseeded "
                f"linear descent ({iterations} >= {linear_iterations})"
            )
    return failures


def check_sweeps(measurements, baseline):
    """Compare sweep measurements against the baseline; returns failures."""
    failures = []
    pr4 = baseline.get("pr4_reference_conflicts", {})
    strict = set(baseline.get("strict_conflicts_vs_pr4", []))
    for name, expected in baseline.get("sweep_configs", {}).items():
        measured = measurements.get(name)
        if measured is None:
            failures.append(f"sweep {name}: configuration was not measured")
            continue
        if measured["added_cost"] != expected["added_cost"]:
            failures.append(
                f"sweep {name}: proven minimum changed "
                f"({measured['added_cost']} != {expected['added_cost']})"
            )
        conflicts = measured["solver_conflicts"]
        if conflicts > expected["max_conflicts"]:
            failures.append(
                f"sweep {name}: sweep conflicts regressed "
                f"({conflicts} > baseline {expected['max_conflicts']})"
            )
        if name in strict and name in pr4 and conflicts >= pr4[name]:
            failures.append(
                f"sweep {name}: conflicts no longer strictly below the "
                f"pre-sweep-sharing PR 4 reference "
                f"({conflicts} >= {pr4[name]})"
            )
        min_pruned = expected.get("min_families_pruned", 0)
        if measured["families_pruned"] < min_pruned:
            failures.append(
                f"sweep {name}: expected at least {min_pruned} pruned "
                f"families, saw {measured['families_pruned']}"
            )
    return failures


def _environment_stamp() -> dict:
    """Provenance of a recorded entry: interpreter, platform, backend, rev.

    Wall-clock history is only comparable when the machine and the solver
    backend are known; every entry records where its numbers came from.
    """
    stamp = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    stamp.update(solver_backend_provenance())
    try:
        stamp["git_revision"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        stamp["git_revision"] = "unknown"
    return stamp


def record_entry(sweeps, splits, artifacts, path: Path) -> dict:
    """Append one schema-versioned sweep entry to BENCH_sweep.json."""
    cold_conflicts = artifacts["cold"]["solver_conflicts"]
    warm_conflicts = artifacts["warm"]["solver_conflicts"]
    entry = {
        "schema_version": BENCH_SWEEP_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": "subset sweeps (paper example + Table-1 3-qubit + "
                     "benchlib corpus, ibm_qx4 + sweep_grid8) + windowed "
                     "splits (ibm_qx5, ibm_tokyo) + artifact warm start "
                     "(3_17_13 on sweep_grid8, shared store)",
        "environment": _environment_stamp(),
        "configs": sweeps,
        "split_configs": splits,
        "artifact_configs": artifacts,
        "artifact_conflict_saving_percent": round(
            100.0 * (1.0 - warm_conflicts / cold_conflicts), 1
        ) if cold_conflicts > 0 else 0.0,
        "split_wall_seconds_total": round(
            sum(m["wall_seconds"] for m in splits.values()), 4
        ),
        "wall_seconds_total": round(
            sum(m["wall_seconds"] for m in sweeps.values()), 4
        ),
        "conflicts_total": sum(m["solver_conflicts"] for m in sweeps.values()),
        "families_pruned_total": sum(
            m["families_pruned"] for m in sweeps.values()
        ),
        "clauses_imported_total": sum(
            m["clauses_imported"] for m in sweeps.values()
        ),
    }
    if path.exists():
        history = json.loads(path.read_text())
    else:
        history = {"entries": []}
    history["schema_version"] = BENCH_SWEEP_SCHEMA
    history["entries"].append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "perf_smoke_baseline.json"),
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the measured numbers to this JSON file (CI artifact)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append a schema-versioned entry (wall seconds, conflicts, "
        "clauses shared, families pruned) to --bench-history",
    )
    parser.add_argument(
        "--bench-history",
        default=str(Path(__file__).parent / "BENCH_sweep.json"),
        help="sweep wall-clock history file appended to by --record",
    )
    parser.add_argument(
        "--warm-start-only", action="store_true",
        help="run only the artifact cold/warm section (the CI warm-start "
        "job): grid8 sweep twice against one shared solve-artifact store; "
        "fails unless the warm run hits the store, closes a family and "
        "finishes with strictly fewer conflicts",
    )
    args = parser.parse_args(argv)

    if args.warm_start_only:
        artifacts = measure_artifacts()
        for phase in ("cold", "warm"):
            metrics = artifacts[phase]
            print(
                f"artifact {phase:4s} cost={metrics['added_cost']:3d} "
                f"conflicts={metrics['solver_conflicts']:5d} "
                f"hits={metrics['artifact_hits']} "
                f"clauses={metrics['artifact_clauses_imported']:3d} "
                f"bounds={metrics['artifact_bounds_used']} "
                f"closed={metrics['families_closed']} "
                f"wall={metrics['wall_seconds']:.3f}s"
            )
        failures = check_artifacts(artifacts)
        if args.output:
            Path(args.output).write_text(
                json.dumps({"artifact_measurements": artifacts}, indent=2)
                + "\n"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("warm start OK: artifact seeding strictly reduced conflicts")
        return 0

    baseline = json.loads(Path(args.baseline).read_text())
    measurements = measure()
    sweeps = measure_sweeps()
    splits = measure_splits()
    artifacts = measure_artifacts()

    report = {
        "benchmark": baseline.get("benchmark"),
        "measurements": measurements,
        "sweep_measurements": sweeps,
        "split_measurements": splits,
        "artifact_measurements": artifacts,
        "baseline_max_iterations": {
            name: config["max_iterations"]
            for name, config in baseline["configs"].items()
        },
        "baseline_max_conflicts": {
            name: config["max_conflicts"]
            for name, config in baseline["configs"].items()
        },
        "baseline_max_sweep_conflicts": {
            name: config["max_conflicts"]
            for name, config in baseline.get("sweep_configs", {}).items()
        },
        "pr2_reference_iterations": baseline.get("pr2_reference_iterations"),
        "pr4_reference_conflicts": baseline.get("pr4_reference_conflicts"),
        "strict_improvement_vs_linear": baseline.get(
            "strict_improvement_vs_linear"
        ),
    }

    for name, metrics in measurements.items():
        print(
            f"{name:18s} cost={metrics['added_cost']} "
            f"iterations={metrics['solver_iterations']:3d} "
            f"conflicts={metrics['solver_conflicts']:5d} "
            f"wall={metrics['wall_seconds']:.3f}s"
        )
    for name, metrics in sweeps.items():
        print(
            f"sweep {name:14s} cost={metrics['added_cost']:3d} "
            f"conflicts={metrics['solver_conflicts']:5d} "
            f"pruned={metrics['families_pruned']}/{metrics['families_total']} "
            f"imported={metrics['clauses_imported']:3d} "
            f"wall={metrics['wall_seconds']:.3f}s"
        )

    for name, metrics in splits.items():
        print(
            f"split {name:14s} cost={metrics['added_cost']:4d} "
            f"windows={metrics['split_windows']} "
            f"stitch={metrics['stitch_swaps_total']:3d} "
            f"conflicts={metrics['solver_conflicts']:5d} "
            f"wall={metrics['wall_seconds']:.3f}s"
        )

    for phase, metrics in artifacts.items():
        print(
            f"artifact {phase:4s}      cost={metrics['added_cost']:3d} "
            f"conflicts={metrics['solver_conflicts']:5d} "
            f"hits={metrics['artifact_hits']} "
            f"clauses={metrics['artifact_clauses_imported']:3d} "
            f"bounds={metrics['artifact_bounds_used']} "
            f"closed={metrics['families_closed']} "
            f"wall={metrics['wall_seconds']:.3f}s"
        )

    failures = check(measurements, baseline)
    failures += check_sweeps(sweeps, baseline)
    failures += check_artifacts(artifacts)
    failures += check_exact_table_pin()

    if args.record:
        entry = record_entry(
            sweeps, splits, artifacts, Path(args.bench_history)
        )
        print(
            f"recorded sweep entry: {entry['wall_seconds_total']:.3f}s, "
            f"{entry['conflicts_total']} conflicts; warm start saved "
            f"{entry['artifact_conflict_saving_percent']:.1f}% of sweep "
            "conflicts"
        )
        report["bench_sweep_entry"] = entry

    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf smoke OK: no iteration or conflict regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

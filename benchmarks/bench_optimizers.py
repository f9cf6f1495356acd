#!/usr/bin/env python
"""Descent strategies head to head: linear and core on one budget.

Every run is ``SATMapper(device, use_subsets=True, optimizer=name,
time_limit=20).map(circuit)`` in this process, one after the other, so
every sweep family starts at DP's schedule and the descents differ in how
they prove it (or find a family's bound unreachable).  Two sets:

* ``qx4`` — the Table-1 stand-ins on IBM QX4 that finish within the budget
  (3_17_13, ex-1_166, ham3_102, miller_11, 4gt11_84 and the five-qubit
  4mod5-v0_20), each also mapped by the DP engine, whose minimum and wall
  time are the reference columns;
* ``grid8`` — cold 3-qubit skeletons ``random_cnot_circuit(3, 12,
  seed=8000..8007)`` on the 8-qubit ``sweep_grid8`` device.

Each run records the added cost, whether the sweep's minimum was proven
(every family decided before the budget ran out), solver conflicts and
wall seconds.  The results are written to ``benchmarks/BENCH_table1.json``,
which overwrites the previous snapshot.  The run takes several minutes on
the pure backend.

Usage::

    PYTHONPATH=src python benchmarks/bench_optimizers.py [--time-limit 20]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.arch.cache import shared_permutation_table
from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import benchmark_circuit, random_cnot_circuit
from repro.exact.dp_mapper import DPMapper
from repro.exact.sat_mapper import SATMapper
from repro.sat.solver import solver_backend_provenance

OPTIMIZERS = ("linear", "core")
QX4_CIRCUITS = (
    "3_17_13", "ex-1_166", "ham3_102", "miller_11", "4gt11_84", "4mod5-v0_20",
)
GRID8_SEEDS = range(8000, 8008)


def _rows():
    """``(set, label, device, circuit)`` in run order."""
    qx4, grid8 = ibm_qx4(), sweep_grid8()
    for name in QX4_CIRCUITS:
        yield "qx4", name, qx4, benchmark_circuit(name)
    for seed in GRID8_SEEDS:
        yield "grid8", f"rand3x12_s{seed}", grid8, random_cnot_circuit(3, 12, seed=seed)


def _run(device, circuit, optimizer: str, time_limit: float) -> dict:
    mapper = SATMapper(device, use_subsets=True, optimizer=optimizer, time_limit=time_limit)
    start = time.monotonic()
    result = mapper.map(circuit)
    wall = time.monotonic() - start
    stats = result.statistics
    return {
        "added_cost": result.added_cost,
        # With subsets the result never claims global minimality; the
        # sweep's own minimum is proven when no family was cut short.
        "proven": not stats["budget_exhausted"] and wall < time_limit,
        "conflicts": stats["solver_conflicts"],
        "solver_iterations": stats["solver_iterations"],
        "wall_s": round(wall, 3),
    }


def _summary(rows) -> dict:
    summary = {}
    for optimizer in OPTIMIZERS:
        runs = [row["runs"][optimizer] for row in rows]
        summary[optimizer] = {
            "proven": sum(run["proven"] for run in runs),
            "rows": len(runs),
            "median_wall_s": round(statistics.median(run["wall_s"] for run in runs), 3),
            "conflicts_total": sum(run["conflicts"] for run in runs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--time-limit", type=float, default=20.0,
                        help="wall-clock budget of each SAT run in seconds")
    parser.add_argument("--output", default=str(Path(__file__).parent / "BENCH_table1.json"),
                        help="JSON file the results are written to")
    args = parser.parse_args(argv)

    rows = []
    for set_name, label, device, circuit in _rows():
        shared_permutation_table(device)  # one-off table build, not timed
        row = {"set": set_name, "circuit": label, "runs": {}}
        if set_name == "qx4":
            start = time.monotonic()
            row["dp_added_cost"] = DPMapper(device).map(circuit).added_cost
            row["dp_wall_s"] = round(time.monotonic() - start, 3)
        for optimizer in OPTIMIZERS:
            run = _run(device, circuit, optimizer, args.time_limit)
            row["runs"][optimizer] = run
            print(f"{set_name:5s} {label:16s} {optimizer:6s} cost={run['added_cost']:4d} "
                  f"proven={str(run['proven']):5s} conflicts={run['conflicts']:6d} "
                  f"wall={run['wall_s']:7.3f}s", flush=True)
        rows.append(row)

    report = {
        "benchmark": "SATMapper subset sweeps (every family seeded with DP's "
                     "schedule) under each descent strategy: Table-1 stand-ins on "
                     "ibm_qx4 (DP as reference) and random 3-qubit skeletons on "
                     "sweep_grid8",
        "time_limit_s": args.time_limit,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            **solver_backend_provenance(),
        },
        "summary": {
            set_name: _summary([row for row in rows if row["set"] == set_name])
            for set_name in ("qx4", "grid8")
        },
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

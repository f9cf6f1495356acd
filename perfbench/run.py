#!/usr/bin/env python3
"""The repository's benchmark: one workload per entry point.

    python3 perfbench/run.py --workload exact-qx4 --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``exact-qx4``  -- ``SATMapper.map`` on the Table-1 stand-ins, on qx4;
* ``warm-grid8`` -- ``MappingService`` with the SAT subset sweep on grid8,
  cold skeletons then warm-started variants, over a fresh store;
* ``serve-http`` -- the ``repro.cli listen`` fleet in its own process,
  driven over HTTP by one closed-loop client.

A run maps the workload's inputs in two or three identical rounds (20-40 s
on a 2-CPU machine) and reports each job's mean latency over them, in
seconds at a reference machine speed (see ``pace.py``); the work is fixed,
so ``--seconds`` is accepted for the command-line interface only.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of one more, traced round and writes its Chrome trace
and per-layer table under ``perfbench/out/``.  Every output is checked; any
failed check makes the run exit 1.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("exact-qx4", "warm-grid8", "serve-http")


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, trace: bool, size, env, work: Path):
    if workload == "serve-http":
        import serve

        return serve.run_serve_http(seed, size, trace, env, work)
    import inproc

    runner = inproc.run_exact_qx4 if workload == "exact-qx4" else inproc.run_warm_grid8
    return runner(seed, size, trace, env, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="accepted for the interface; the work is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few seconds of work per workload (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    env = harness.control_environment()
    import inputs

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = inputs.SMOKE if args.smoke else inputs.FULL
    harness.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=harness.OUT))
    try:
        calib_before = harness.calibrate()
        outcome = _run(args.workload, args.seed, bool(args.trace), size, env, work)
        calib_after = harness.calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calib = [calib_before, calib_after]
    stamp = harness.environment_stamp(harness.OUT, calib)
    seed_drift = harness.check_counters(
        args.workload + ("-smoke" if args.smoke else ""), args.seed, outcome.counters
    )
    drifts = [outcome.drift] if outcome.drift else []
    if seed_drift:
        drifts.append("differ from an earlier run of this seed: " + seed_drift)
    stamp["counters"] = "; ".join(drifts) if drifts else "repeat"
    tag = f"{args.workload}-seed{args.seed}"
    if outcome.tracer is not None:
        outcome.tracer.write_chrome(harness.OUT / f"trace-{tag}.json")
        (harness.OUT / f"layers-{tag}.txt").write_text("\n".join(outcome.report) + "\n")
    for line in outcome.report:
        print(line)
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    for drift in drifts:
        print(f"COUNTER DRIFT {args.workload} seed {args.seed}: {drift}")
    print("stamp " + json.dumps(stamp, sort_keys=True))

    failed = len(outcome.failures)
    values = dict(outcome.e2e)
    values["success_frac"] = (outcome.attempted - failed) / outcome.attempted
    values.update(outcome.layers)
    values["env.calib_s"] = harness.median(calib)
    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                         "unit": metric["unit"]}
        for metric in wanted
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""The two in-process workloads: exact-qx4 (``SATMapper.map``) and
warm-grid8 (``MappingService`` over a fresh ``ResultStore``)."""

from __future__ import annotations

import asyncio
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import DPMapper, SATMapper, ibm_qx4, mapped_circuit_equivalent, verify_result
from repro.arch.devices import sweep_grid8

import harness
import inputs
import prepare
from harness import Outcome
from pace import Pace
from tracing import WRAPPERS, Tracer, format_table

#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 5
#: Traced rounds and the DP oracle keep pace samples out of their spans,
#: so there the pace is sampled between jobs: a block of ``PACE_BLOCK``
#: samples before the first job, and after each job for ``PACE_DUTY`` of
#: the job's duration.
PACE_BLOCK = 20
PACE_DUTY = 0.1


@dataclass
class Round:
    """One round of a workload: per job, its result, latency and error."""

    results: List[object] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # measured seconds
    stretches: List[tuple] = field(default_factory=list)  # when each job ran
    errors: List[Optional[str]] = field(default_factory=list)
    provenance: List[dict] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)
    ticks: bool = False  # the pace is sampled during jobs, not between them

    def scaled(self) -> List[float]:
        """Job latencies in reference seconds (see ``pace``)."""
        return [latency * self.pace.factor(stretch)
                for latency, stretch in zip(self.latencies, self.stretches)]

    def start(self):
        """Mark a job's start (sampling the pace first if it never was)."""
        if not self.ticks and not self.pace.blocks:
            self.pace.sample(PACE_BLOCK)
        return self.pace.start()

    def finish(self, mark) -> None:
        """Record the job begun at *mark* (then sample between jobs)."""
        latency, stretch = self.pace.finish(mark)
        self.latencies.append(latency)
        self.stretches.append(stretch)
        if not self.ticks:
            self.pace.sample(PACE_BLOCK, PACE_DUTY * latency)


def verify(result, circuit, coupling) -> Optional[str]:
    """Why *result* is not a correct mapping of *circuit*, or None.

    Coupling compliance, the cost bookkeeping, and statevector equivalence
    of the mapped circuit under its initial and final mappings.
    """
    if result.original_circuit.fingerprint() != circuit.fingerprint():
        return "result belongs to another circuit"
    try:
        report = verify_result(result, coupling)
    except AssertionError as error:
        return f"cost bookkeeping: {error}"
    if not report.compliant:
        return f"coupling violations {report.violations[:3]}"
    if not mapped_circuit_equivalent(
        circuit, result.mapped_circuit, result.initial_mapping, result.final_mapping
    ):
        return "mapped circuit is not equivalent"
    return None


def sweep_counters(result) -> Dict[str, int]:
    stats = result.statistics
    keys = (
        "solver_conflicts", "solver_propagations", "solver_iterations",
        "families_total", "families_pruned", "clauses_imported",
        "artifact_hits", "artifact_misses", "artifact_clauses_imported",
        "artifact_models_used",
    )
    counters = {key: int(stats.get(key, 0)) for key in keys}
    counters["added_cost"] = result.added_cost
    return counters


def layer_metrics(tracer: Tracer, results: Sequence, map_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced round (plus its oracle spans)."""
    table = tracer.layer_table()
    in_jobs = tracer.layer_table(in_jobs=True)

    def col(layer: str, key: str = "self_s") -> float:
        return table.get(layer, {}).get(key, 0)

    stats = [r.statistics for r in results if r is not None]

    def total(key: str) -> int:
        return sum(int(s.get(key, 0)) for s in stats)

    families = total("families_total")
    artifact_lookups = total("artifact_hits") + total("artifact_misses")
    solve_s = col("sat.solve", "total_s")
    # The wrapper spans' own time is what no named layer claims: the job
    # span around each call, and SATMapper.map outside its child layers.
    unclaimed = sum(in_jobs.get(name, {}).get("self_s", 0.0) for name in WRAPPERS)
    return {
        "arch.tables_s": col("arch.tables"),
        "encoding.build_s": col("encoding.build"),
        "encoding.clauses": col("encoding.build", "clauses"),
        "sat.solve_s": col("sat.solve"),
        "sat.conflicts": col("sat.solve", "conflicts"),
        "sat.propagations": col("sat.solve", "propagations"),
        "sat.props_per_s": col("sat.solve", "propagations") / solve_s if solve_s else 0.0,
        "sat.iterations": col("sat.solve", "iterations"),
        "sweep.families": families,
        "sweep.solved_frac": (families - total("families_pruned")) / families if families else 0.0,
        "sweep.clauses_imported": total("clauses_imported"),
        "sweep.self_s": col("sweep"),
        "reconstruct.s": col("reconstruct"),
        "dp.map_s": col("dp.map"),
        "dp.transitions": col("dp.map", "transitions"),
        "pipeline.seed_s": col("pipeline.seed"),
        "artifact.hit_frac": total("artifact_hits") / artifact_lookups if artifact_lookups else 0.0,
        "artifact.clauses_imported": total("artifact_clauses_imported"),
        "artifact.models_used": total("artifact_models_used"),
        "store.get_s": col("store.get"),
        "store.put_s": col("store.put"),
        "store.artifact_get_s": col("store.artifact_get"),
        "store.artifact_put_s": col("store.artifact_put"),
        "trace.unattributed_frac": unclaimed / map_s if map_s else 0.0,
    }


def setup_times(workload: str, env, work: Path) -> List[float]:
    """Set-up seconds of fresh interpreters, in reference seconds."""
    code = prepare.SETUP_PROBE[workload]
    return [
        harness.time_setup_in_fresh_interpreter(
            code.replace("WORK_DIR", repr(str(work / f"setup-{attempt}")))
            .replace("TICK_S", repr(prepare.SETUP_TICK_S)), env
        )
        for attempt in range(SETUP_REPEATS)
    ]


def _check_drift(outcome: Outcome, counters_by_round: List[List[dict]]) -> None:
    outcome.counters = counters_by_round[0]
    outcome.drift = harness.round_drift(counters_by_round)


# ----------------------------------------------------------------------
# exact-qx4
# ----------------------------------------------------------------------
def _exact_round(circuits, tracer: Optional[Tracer] = None) -> Round:
    coupling = ibm_qx4()
    done = Round(ticks=tracer is None)
    with done.pace.ticking() if done.ticks else nullcontext():
        for index, circuit in enumerate(circuits):
            mark = done.start()
            result, error = None, None
            try:
                with tracer.job_span(f"exact-{index}") if tracer else nullcontext():
                    result = SATMapper(coupling, use_subsets=True).map(circuit)
            except Exception as failure:  # noqa: BLE001 - a failed job is counted, not fatal
                error = f"{type(failure).__name__}: {failure}"
            done.finish(mark)
            done.results.append(result)
            done.errors.append(error)
    return done


def run_exact_qx4(seed: int, size: inputs.Size, trace: bool, env, work: Path) -> Outcome:
    circuits = inputs.exact_qx4(seed, size)
    setup = setup_times("exact-qx4", env, work)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.instrument()
    prepare.qx4_tables()
    if tracer:
        tracer.restore()
    rounds = [_exact_round(circuits) for _ in range(inputs.ROUNDS["exact-qx4"])]
    peak_rss = harness.vm_hwm_mb()
    if tracer:
        tracer.instrument()
        rounds.append(_exact_round(circuits, tracer))

    # Oracle, after the timed rounds so it cannot warm the timed work: the
    # independent DP engine must prove the same minimum, row by row.
    coupling = ibm_qx4()
    oracle, dp_pace = [], Pace()
    dp_pace.sample(PACE_BLOCK)
    mark = dp_pace.start()
    for circuit in circuits:
        oracle.append(DPMapper(coupling).map(circuit))
    dp_time, stretch = dp_pace.finish(mark)
    dp_pace.sample(PACE_BLOCK)
    dp_time *= dp_pace.factor(stretch)
    if tracer:
        tracer.restore()

    outcome = Outcome(attempted=len(circuits) * len(rounds))
    for number, done in enumerate(rounds, start=1):
        for circuit, result, error, dp in zip(circuits, done.results, done.errors, oracle):
            if error is None:
                error = verify(result, circuit, coupling)
            if error is None and result.added_cost != dp.added_cost:
                error = f"added cost {result.added_cost} != DP {dp.added_cost}"
            outcome.record(f"round {number} {circuit.name}", error)
    _check_drift(outcome, [
        [dict(sweep_counters(result) if result else {},
              dp_transitions=dp.statistics.get("transitions_evaluated", 0))
         for result, dp in zip(done.results, oracle)]
        for done in rounds
    ])
    timed = rounds[:inputs.ROUNDS["exact-qx4"]]
    timings = harness.timing_metrics([done.scaled() for done in timed], [True] * len(circuits))
    for index, (circuit, dp) in enumerate(zip(circuits, oracle)):
        result = timed[0].results[index]
        rounds_s = " ".join(f"{done.scaled()[index]:.3f}" for done in timed)
        outcome.report.append(
            f"  {circuit.name:<10} sat {result.added_cost if result else '-':>4}"
            f"  dp {dp.added_cost:>4}  rounds {rounds_s} s"
        )
    outcome.report.append(harness.pace_line(
        [sum(done.latencies) for done in timed], [done.pace.factor() for done in timed]
    ))
    outcome.e2e = {
        "setup_s": harness.median(setup),
        **timings,
        "added_cost": sum(r.added_cost for r in timed[0].results if r is not None),
        "peak_rss_mb": peak_rss,
    }
    if tracer:
        traced = rounds[-1]
        traced_map_s = sum(traced.latencies)  # the spans' clock
        outcome.layers = layer_metrics(tracer, traced.results, traced_map_s)
        outcome.layers["exact.sat_over_dp"] = timings["map_s"] / dp_time
        outcome.layers["trace.overhead"] = sum(traced.scaled()) / timings["map_s"] - 1
        outcome.tracer = tracer
        outcome.report.append(format_table("exact-qx4", tracer, traced_map_s))
    return outcome


# ----------------------------------------------------------------------
# warm-grid8
# ----------------------------------------------------------------------
async def _service_round(jobs, store_path: Path, tracer: Optional[Tracer] = None) -> Round:
    """Cold skeletons, then their variants, through one service, one caller."""
    service = prepare.grid8_service(store_path)
    await service.start()
    done = Round(ticks=tracer is None)
    ticker = asyncio.ensure_future(done.pace.ticker()) if done.ticks else None
    try:
        for index, (_, circuit) in enumerate(jobs):
            mark = done.start()
            result, error = None, None
            with tracer.job_span(f"grid8-{index}") if tracer else nullcontext():
                try:
                    job_id = await service.submit(circuit)
                    result = await service.result(job_id)
                except Exception as failure:  # noqa: BLE001 - counted per job
                    error = f"{type(failure).__name__}: {failure}"
            done.finish(mark)
            done.results.append(result)
            done.errors.append(error)
            done.provenance.append(service.status(job_id)["provenance"] if error is None else {})
    finally:
        if ticker:
            ticker.cancel()
            with suppress(asyncio.CancelledError):
                await ticker
        await service.stop()
    return done


def run_warm_grid8(seed: int, size: inputs.Size, trace: bool, env, work: Path) -> Outcome:
    jobs = inputs.warm_grid8(seed, size)
    setup = setup_times("warm-grid8", env, work)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.instrument()
    prepare.device_tables(sweep_grid8(), (3,))
    if tracer:
        tracer.restore()
    rounds = [
        asyncio.run(_service_round(jobs, work / f"round-{number}" / "results.sqlite"))
        for number in range(inputs.ROUNDS["warm-grid8"])
    ]
    peak_rss = harness.vm_hwm_mb()
    if tracer:
        tracer.instrument()
        rounds.append(asyncio.run(
            _service_round(jobs, work / "round-traced" / "results.sqlite", tracer)
        ))
        tracer.restore()

    # Oracle: a warm start never changes the sweep minimum, so every variant
    # must cost what the cold solve of its skeleton cost.
    outcome = Outcome(attempted=len(jobs) * len(rounds))
    coupling = sweep_grid8()
    for number, done in enumerate(rounds, start=1):
        cold_cost: Dict[int, int] = {}
        for (skeleton, circuit), result, error in zip(jobs, done.results, done.errors):
            if error is None:
                error = verify(result, circuit, coupling)
            if error is None:
                expected = cold_cost.setdefault(skeleton, result.added_cost)
                if result.added_cost != expected:
                    error = f"added cost {result.added_cost} != cold {expected}"
            outcome.record(f"round {number} {circuit.name}", error)
    _check_drift(outcome, [
        [dict(sweep_counters(result) if result else {},
              batch_size=prov.get("batch_size", 0),
              cache_hit=bool(prov.get("cache_hit")))
         for result, prov in zip(done.results, done.provenance)]
        for done in rounds
    ])
    timed = rounds[:inputs.ROUNDS["warm-grid8"]]
    cold = [index < len(size.grid8_skeletons) for index in range(len(jobs))]  # cold round first
    timings = harness.timing_metrics([done.scaled() for done in timed], cold)
    outcome.report.append(harness.pace_line(
        [sum(done.latencies) for done in timed], [done.pace.factor() for done in timed]
    ))
    outcome.e2e = {
        "setup_s": harness.median(setup),
        **timings,
        "added_cost": sum(r.added_cost for r in timed[0].results if r is not None),
        "peak_rss_mb": peak_rss,
    }
    if tracer:
        traced = rounds[-1]
        traced_map_s = sum(traced.latencies)  # the spans' clock
        outcome.layers = layer_metrics(tracer, traced.results, traced_map_s)
        job_s = [p["elapsed_seconds"] for p in traced.provenance if "elapsed_seconds" in p]
        outcome.layers["service.job_s"] = harness.median(job_s) if job_s else 0.0
        outcome.layers["service.batch_size"] = sum(
            p.get("batch_size", 1) for p in traced.provenance
        ) / len(traced.provenance)
        outcome.layers["trace.overhead"] = sum(traced.scaled()) / timings["map_s"] - 1
        outcome.tracer = tracer
        outcome.report.append(format_table("warm-grid8", tracer, traced_map_s))
    return outcome

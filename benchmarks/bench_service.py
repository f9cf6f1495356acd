#!/usr/bin/env python
"""Load benchmark of the network serving layer.

Boots a real :class:`~repro.server.supervisor.Supervisor` (worker
subprocesses, shared result store, load-aware routing) and drives a mixed
cached/uncached workload of 4-qubit circuits through ``POST /v1/jobs`` +
``GET /v1/jobs/{id}/result?wait=`` with a configurable number of concurrent
asyncio clients.  Per-request latency is measured submit-to-result; the run
reports nearest-rank p50/p99, mean, throughput and error rate.

Two modes:

* **default / --record** — run the workload against a 1-worker and a
  2-worker fleet (fresh store each, disjoint uncached circuits) and report
  both; ``--record`` appends a schema-versioned entry with an environment
  stamp (python, platform, solver backend, git revision) to
  ``benchmarks/BENCH_service.json``, the committed serving-throughput
  trajectory.  On an uncached mixed workload the 2-worker fleet must beat
  the 1-worker fleet: the whole point of the process supervisor is that the
  pure-Python solver's GIL stops mattering across processes.  That gate
  only makes sense with >= 2 CPUs; on a single-CPU machine (CI containers,
  cgroup-pinned boxes) it degrades to a no-collapse check and the recorded
  entry carries an explicit ``single_core_waiver`` so the number is never
  misread as a scaling result.
* **--smoke** — one short 2-worker run for CI: zero errors required and a
  generous p99 gate (``--p99-gate``); exit 1 on violation.
* **--chaos** — the same workload with a worker SIGKILLed mid-benchmark:
  every accepted job must still reach a terminal state (result or
  structured error) under its original id — zero lost jobs is the gate;
  p50/p99 and the error rate are appended to ``BENCH_service.json``.  The
  clients keep submitting past ``--requests`` (capped at 36) until the kill
  has fired and the restarted worker is healthy, so the kill always lands
  mid-workload.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --record
    PYTHONPATH=src python benchmarks/bench_service.py --smoke
    PYTHONPATH=src python benchmarks/bench_service.py --chaos
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchlib.generators import random_cnot_circuit  # noqa: E402
from repro.circuit.qasm.writer import to_qasm  # noqa: E402
from repro.sat.solver import solver_backend_provenance  # noqa: E402
from repro.server import wire  # noqa: E402
from repro.server.supervisor import Supervisor  # noqa: E402

#: Schema version of the entries appended to BENCH_service.json.
BENCH_SERVICE_SCHEMA = 1

#: Qubits / CNOT count of the workload circuits.  16 CNOTs on 4 qubits puts
#: one uncached dp solve around 100ms — long enough that solver work (not
#: HTTP plumbing) dominates, short enough for a quick benchmark.
WORKLOAD_QUBITS = 4
WORKLOAD_CNOTS = 16


def _available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _environment_stamp() -> dict:
    """Provenance of a recorded entry: interpreter, platform, backend, rev."""
    stamp = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": _available_cpus(),
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


def _request_stream(cached_fraction: float, seed_base: int):
    """Endless request mix: submit bodies, cached ones repeating a hot circuit.

    ``seed_base`` keeps the uncached circuits of independent runs disjoint,
    so the 1-worker and 2-worker fleets both solve everything cold.
    """
    hot = to_qasm(
        random_cnot_circuit(
            WORKLOAD_QUBITS, WORKLOAD_CNOTS, seed=seed_base, locality=0.7
        )
    )
    cached_every = max(2, round(1 / cached_fraction)) if cached_fraction else 0
    for index in itertools.count():
        if cached_every and index % cached_every == 0 and index > 0:
            qasm, kind = hot, "cached"
        else:
            qasm = to_qasm(
                random_cnot_circuit(
                    WORKLOAD_QUBITS, WORKLOAD_CNOTS,
                    seed=seed_base + 1 + index, locality=0.7,
                )
            )
            kind = "uncached"
        envelope = {
            "type": "submit-request",
            "version": 1,
            "payload": {
                "qasm": qasm,
                "arch": "ibm_qx4",
                "engine": "dp",
                "circuit_name": f"bench_{kind}_{index}",
            },
        }
        yield json.dumps(envelope).encode(), kind


def _workload(requests: int, cached_fraction: float, seed_base: int):
    """The first *requests* bodies of :func:`_request_stream`."""
    return list(
        itertools.islice(_request_stream(cached_fraction, seed_base), requests)
    )


def _quantile(values, q):
    """Nearest-rank quantile of a non-empty sorted list."""
    rank = max(0, min(len(values) - 1, int(q * len(values) + 0.5) - 1))
    return values[rank]


async def _client_loop(port, queue, latencies, errors, kinds_done):
    while True:
        try:
            body, kind = queue.get_nowait()
        except asyncio.QueueEmpty:
            return
        started = time.perf_counter()
        try:
            _status, _headers, raw = await wire.http_request(
                "127.0.0.1", port, "POST", "/v1/jobs", body=body, timeout=120,
                retries=2,
            )
            submitted = json.loads(raw)
            if submitted.get("type") != "job-status":
                raise RuntimeError(f"submit failed: {submitted}")
            job_id = submitted["payload"]["job_id"]
            status, _headers, raw = await wire.http_request(
                "127.0.0.1", port, "GET",
                f"/v1/jobs/{job_id}/result?wait=120", timeout=150, retries=2,
            )
            if status != 200:
                raise RuntimeError(f"result failed ({status}): {raw[:200]!r}")
        except Exception as error:  # noqa: BLE001 - every failure is counted
            errors.append(f"{type(error).__name__}: {error}")
        else:
            latencies.append(time.perf_counter() - started)
            kinds_done[kind] = kinds_done.get(kind, 0) + 1


#: Chaos mode: per-job polling deadline.  Redelivery after a worker kill
#: takes a few heartbeat intervals plus one re-solve; anything still
#: non-terminal after this long is genuinely lost.
CHAOS_JOB_DEADLINE_SECONDS = 90.0

#: Error codes that are legitimate *terminal* outcomes under chaos — the
#: job is settled, just not with a result.
CHAOS_TERMINAL_ERROR_CODES = frozenset(
    {"service-unavailable", "mapping-failed", "routing-failed",
     "deadline-exceeded", "job-cancelled"}
)


async def _chaos_client_loop(port, next_request, ledger):
    """Like ``_client_loop`` but tracks every job to a terminal outcome.

    *next_request* returns the next ``(body, kind)`` or ``None`` when the
    run is over.  A worker kill mid-benchmark opens a window where the
    public id 404s (worker dead, redelivery pending) or the proxy answers
    502 — both are transient and re-polled; only a job that never reaches a
    terminal state before the deadline counts as *lost*.
    """
    while (request := next_request()) is not None:
        body, kind = request
        record = {"kind": kind, "outcome": None, "terminal": False}
        ledger.append(record)
        started = time.perf_counter()
        try:
            status, _headers, raw = await wire.http_request(
                "127.0.0.1", port, "POST", "/v1/jobs", body=body,
                timeout=120, retries=4,
            )
            submitted = json.loads(raw)
        except Exception as error:  # noqa: BLE001 - counted, not fatal
            # Never accepted: nothing to lose, but the submit error counts.
            record["outcome"] = f"submit-error:{type(error).__name__}"
            record["terminal"] = True
            continue
        if submitted.get("type") != "job-status":
            code = submitted.get("payload", {}).get("error_code", "unknown")
            record["outcome"] = f"submit-rejected:{code}"
            record["terminal"] = True
            continue
        record["job_id"] = submitted["payload"]["job_id"]
        deadline = time.monotonic() + CHAOS_JOB_DEADLINE_SECONDS
        while time.monotonic() < deadline:
            try:
                status, _headers, raw = await wire.http_request(
                    "127.0.0.1", port, "GET",
                    f"/v1/jobs/{record['job_id']}/result?wait=20",
                    timeout=60, retries=4,
                )
                envelope = json.loads(raw)
            except Exception:  # noqa: BLE001 - transport blip mid-restart
                await asyncio.sleep(0.5)
                continue
            if status == 200 and envelope.get("type") == "result-payload":
                record["outcome"] = "done"
                record["terminal"] = True
                record["latency"] = time.perf_counter() - started
                break
            code = envelope.get("payload", {}).get("error_code")
            if code in CHAOS_TERMINAL_ERROR_CODES:
                record["outcome"] = f"error:{code}"
                record["terminal"] = True
                break
            # 404 (dead worker, redelivery pending), 502 (proxy hit the
            # corpse), or a still-running 202: poll again.
            await asyncio.sleep(0.5)


async def run_chaos(
    *,
    requests: int,
    concurrency: int,
    cached_fraction: float,
    seed_base: int,
    kill_after: float,
) -> dict:
    """Chaos run: 2-worker fleet, one worker SIGKILLed mid-benchmark.

    The invariant under test: every accepted job reaches a terminal state
    under its original public id, even though one worker (and every job
    queued on it) dies without warning.  The clients submit at least
    *requests* jobs and keep submitting until the kill has fired and the
    restarted worker is healthy again, so the kill lands mid-workload on
    any host; then the in-flight jobs drain.  Submitting stops for good
    :data:`CHAOS_JOB_DEADLINE_SECONDS` after the kill was due.
    """
    stream = _request_stream(cached_fraction, seed_base)
    ledger: list = []
    killed = {}
    recovered = asyncio.Event()
    async with Supervisor(
        workers=2, engine="dp", service_workers=2
    ) as supervisor:
        victim = supervisor.workers[0]

        async def _killer():
            await asyncio.sleep(kill_after)
            if victim.pid:
                killed["worker_id"] = victim.worker_id
                killed["pid"] = victim.pid
                os.kill(victim.pid, signal.SIGKILL)
                while not (victim.restarts and victim.healthy):
                    await asyncio.sleep(0.05)
            recovered.set()

        started = time.perf_counter()
        stop_at = started + kill_after + CHAOS_JOB_DEADLINE_SECONDS

        def _next_request():
            if len(ledger) >= requests and recovered.is_set():
                return None
            if time.perf_counter() > stop_at:
                return None
            return next(stream)

        killer = asyncio.ensure_future(_killer())
        await asyncio.gather(
            *(
                _chaos_client_loop(supervisor.port, _next_request, ledger)
                for _ in range(concurrency)
            )
        )
        killer.cancel()
        elapsed = time.perf_counter() - started
        try:
            _s, _h, raw = await wire.http_request(
                "127.0.0.1", supervisor.port, "GET", "/v1/stats",
                timeout=30, retries=2,
            )
            stats = json.loads(raw).get("payload", {}).get("stats", {})
        except Exception:  # noqa: BLE001 - stats are best-effort garnish
            stats = {}
        restarts = sum(handle.restarts for handle in supervisor.workers)
    latencies = sorted(
        record["latency"] for record in ledger if "latency" in record
    )
    lost = [record for record in ledger if not record["terminal"]]
    errored = [
        record for record in ledger
        if record["terminal"] and record["outcome"] != "done"
    ]
    summary = {
        "workers": 2,
        "requests": len(ledger),
        "concurrency": concurrency,
        "completed": len(latencies),
        "errors": len(errored),
        "error_rate": len(errored) / len(ledger) if ledger else 0.0,
        "lost_jobs": len(lost),
        "worker_killed": killed.get("worker_id"),
        "worker_restarts": restarts,
        "redeliveries": stats.get("redeliveries", 0),
        "journal_enabled": stats.get("journal_enabled", False),
        "wall_seconds": round(elapsed, 4),
        "throughput_rps": round(len(latencies) / elapsed, 3) if elapsed else 0,
    }
    if latencies:
        summary["latency"] = {
            "p50_seconds": round(_quantile(latencies, 0.50), 5),
            "p99_seconds": round(_quantile(latencies, 0.99), 5),
            "mean_seconds": round(sum(latencies) / len(latencies), 5),
            "max_seconds": round(latencies[-1], 5),
        }
    if errored:
        summary["error_samples"] = [
            record["outcome"] for record in errored[:5]
        ]
    summary["ledger"] = ledger
    return summary


async def run_load(
    *,
    workers: int,
    requests: int,
    concurrency: int,
    cached_fraction: float,
    seed_base: int,
    service_workers: int = 2,
) -> dict:
    """One full run: boot a fleet, push the workload, summarize."""
    queue: asyncio.Queue = asyncio.Queue()
    for item in _workload(requests, cached_fraction, seed_base):
        queue.put_nowait(item)
    latencies: list = []
    errors: list = []
    kinds_done: dict = {}
    async with Supervisor(
        workers=workers, engine="dp", service_workers=service_workers
    ) as supervisor:
        started = time.perf_counter()
        await asyncio.gather(
            *(
                _client_loop(
                    supervisor.port, queue, latencies, errors, kinds_done
                )
                for _ in range(concurrency)
            )
        )
        elapsed = time.perf_counter() - started
        restarts = sum(handle.restarts for handle in supervisor.workers)
    latencies.sort()
    summary = {
        "workers": workers,
        "requests": requests,
        "concurrency": concurrency,
        "completed": len(latencies),
        "errors": len(errors),
        "error_rate": len(errors) / requests if requests else 0.0,
        "cached_completed": kinds_done.get("cached", 0),
        "uncached_completed": kinds_done.get("uncached", 0),
        "wall_seconds": round(elapsed, 4),
        "throughput_rps": round(len(latencies) / elapsed, 3) if elapsed else 0,
        "worker_restarts": restarts,
    }
    if latencies:
        summary["latency"] = {
            "p50_seconds": round(_quantile(latencies, 0.50), 5),
            "p99_seconds": round(_quantile(latencies, 0.99), 5),
            "mean_seconds": round(sum(latencies) / len(latencies), 5),
            "max_seconds": round(latencies[-1], 5),
        }
    if errors:
        summary["error_samples"] = errors[:5]
    return summary


def _print_summary(label: str, summary: dict) -> None:
    latency = summary.get("latency", {})
    print(
        f"{label:12s} {summary['completed']}/{summary['requests']} ok, "
        f"{summary['errors']} errors, "
        f"{summary['throughput_rps']:7.2f} req/s, "
        f"p50 {latency.get('p50_seconds', float('nan')):.3f}s, "
        f"p99 {latency.get('p99_seconds', float('nan')):.3f}s "
        f"({summary['cached_completed']} cached / "
        f"{summary['uncached_completed']} uncached)"
    )


def record_entry(runs: dict, config: dict, path: Path) -> dict:
    entry = {
        "schema_version": BENCH_SERVICE_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": (
            "HTTP service load: mixed cached/uncached 4-qubit dp workload "
            "through the multi-process supervisor"
        ),
        "environment": _environment_stamp(),
        "config": config,
        "runs": runs,
    }
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {"schema_version": BENCH_SERVICE_SCHEMA, "entries": []}
    document["entries"].append(entry)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=60,
                        help="total requests per run (default 60)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="concurrent client loops (default 8)")
    parser.add_argument("--cached-fraction", type=float, default=0.25,
                        help="fraction of requests repeating the hot "
                        "circuit (default 0.25)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: one short 2-worker run, zero errors "
                        "required, p99 gated")
    parser.add_argument("--p99-gate", type=float, default=30.0,
                        help="--smoke: maximum tolerated p99 latency in "
                        "seconds (default 30, deliberately generous — the "
                        "gate catches hangs, not noise)")
    parser.add_argument("--record", action="store_true",
                        help="append the 1-vs-2-worker comparison to "
                        "benchmarks/BENCH_service.json")
    parser.add_argument("--chaos", action="store_true",
                        help="kill one worker mid-benchmark; gate on zero "
                        "lost (non-terminal) jobs and append the entry to "
                        "benchmarks/BENCH_service.json")
    parser.add_argument("--kill-after", type=float, default=2.0,
                        help="--chaos: seconds into the run before the "
                        "worker is SIGKILLed (default 2.0)")
    parser.add_argument("--seed", type=int, default=7000,
                        help="--chaos: workload seed base (default 7000)")
    parser.add_argument("--output", default=None,
                        help="also write the run summaries to this JSON file")
    args = parser.parse_args(argv)

    if args.chaos:
        requests = min(args.requests, 36)
        summary = asyncio.run(
            run_chaos(
                requests=requests,
                concurrency=min(args.concurrency, 6),
                cached_fraction=args.cached_fraction,
                seed_base=args.seed,
                kill_after=args.kill_after,
            )
        )
        ledger = summary.pop("ledger")
        label = f"chaos(s={args.seed})"
        _print_summary(label, {
            **summary,
            "cached_completed": sum(
                1 for r in ledger if r["outcome"] == "done"
                and r["kind"] == "cached"
            ),
            "uncached_completed": sum(
                1 for r in ledger if r["outcome"] == "done"
                and r["kind"] == "uncached"
            ),
        })
        print(f"{'':12s} killed {summary['worker_killed']} after "
              f"{args.kill_after:.1f}s, {summary['worker_restarts']} "
              f"restart(s), {summary['redeliveries']} redeliveries, "
              f"{summary['lost_jobs']} lost")
        ok = True
        if summary["lost_jobs"]:
            lost_ids = [r.get("job_id") for r in ledger if not r["terminal"]]
            print(f"FAIL: {summary['lost_jobs']} job(s) never reached a "
                  f"terminal state: {lost_ids}")
            ok = False
        if not summary["journal_enabled"]:
            print("FAIL: job journal was not enabled — redelivery untested")
            ok = False
        if summary["worker_killed"] is None:
            print("FAIL: the workload finished before the kill fired — "
                  "raise --requests or lower --kill-after")
            ok = False
        if args.output:
            Path(args.output).write_text(json.dumps(
                {"summary": summary, "ledger": ledger,
                 "seed": args.seed, "pass": ok}, indent=1) + "\n")
        if ok:
            config = {
                "mode": "chaos",
                "requests": requests,
                "concurrency": min(args.concurrency, 6),
                "cached_fraction": args.cached_fraction,
                "kill_after_seconds": args.kill_after,
                "seed": args.seed,
                "faults": os.environ.get("REPRO_FAULTS", ""),
                "workload_qubits": WORKLOAD_QUBITS,
                "workload_cnots": WORKLOAD_CNOTS,
                "engine": "dp",
                "arch": "ibm_qx4",
            }
            path = Path(__file__).parent / "BENCH_service.json"
            record_entry({"chaos_workers_2": summary}, config, path)
            print(f"recorded entry -> {path}")
        print("chaos:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.smoke:
        requests = min(args.requests, 24)
        summary = asyncio.run(
            run_load(
                workers=2,
                requests=requests,
                concurrency=min(args.concurrency, 4),
                cached_fraction=args.cached_fraction,
                seed_base=9000,
            )
        )
        _print_summary("smoke(w=2)", summary)
        runs = {"smoke_workers_2": summary}
        ok = True
        if summary["errors"]:
            print(f"FAIL: {summary['errors']} errors "
                  f"(samples: {summary.get('error_samples')})")
            ok = False
        if summary["completed"] != requests:
            print(f"FAIL: only {summary['completed']}/{requests} completed")
            ok = False
        p99 = summary.get("latency", {}).get("p99_seconds", float("inf"))
        if p99 > args.p99_gate:
            print(f"FAIL: p99 {p99:.3f}s exceeds the {args.p99_gate:.0f}s gate")
            ok = False
        if args.output:
            Path(args.output).write_text(json.dumps(runs, indent=1) + "\n")
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    runs = {}
    for workers in (1, 2):
        summary = asyncio.run(
            run_load(
                workers=workers,
                requests=args.requests,
                concurrency=args.concurrency,
                cached_fraction=args.cached_fraction,
                # Disjoint seed ranges: both fleets solve their uncached
                # circuits cold.
                seed_base=1000 * workers,
            )
        )
        runs[f"workers_{workers}"] = summary
        _print_summary(f"workers={workers}", summary)

    speedup = (
        runs["workers_2"]["throughput_rps"] / runs["workers_1"]["throughput_rps"]
        if runs["workers_1"]["throughput_rps"]
        else float("inf")
    )
    cpus = _available_cpus()
    print(f"2-worker speedup: {speedup:.2f}x on {cpus} CPU(s)")
    ok = True
    if runs["workers_1"]["errors"] or runs["workers_2"]["errors"]:
        print("FAIL: errors during the load run")
        ok = False
    single_core = cpus < 2
    if single_core:
        # One CPU: two solver processes cannot out-compute one, whatever
        # the serving layer does.  The gate degrades to "the supervisor's
        # extra hop must not collapse throughput" and the recorded entry
        # carries an explicit waiver so the number is never misread as a
        # scaling result.
        print("note: single-CPU machine — strict 2-worker > 1-worker gate "
              "waived (recorded with single_core_waiver); gating on "
              "no-collapse (>= 0.80x) instead")
        if speedup < 0.80:
            print("FAIL: 2-worker throughput collapsed versus 1 worker")
            ok = False
    elif runs["workers_2"]["throughput_rps"] <= runs["workers_1"]["throughput_rps"]:
        print("FAIL: 2-worker throughput must beat 1 worker on an "
              "uncached-dominated workload")
        ok = False

    if args.output:
        Path(args.output).write_text(json.dumps(runs, indent=1) + "\n")
    if args.record and ok:
        config = {
            "requests": args.requests,
            "concurrency": args.concurrency,
            "cached_fraction": args.cached_fraction,
            "workload_qubits": WORKLOAD_QUBITS,
            "workload_cnots": WORKLOAD_CNOTS,
            "engine": "dp",
            "arch": "ibm_qx4",
            "service_workers_per_process": 2,
            "speedup_2_vs_1": round(speedup, 3),
            "single_core_waiver": single_core,
        }
        path = Path(__file__).parent / "BENCH_service.json"
        record_entry(runs, config, path)
        print(f"recorded entry -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

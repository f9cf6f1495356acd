"""serve-http: the ``repro.cli listen`` fleet in its own process.

This process is only the load generator: one closed-loop HTTP client,
outside the supervisor's event loop.  The worker's internals are
reached through the HTTP API alone -- result provenance and ``/v1/stats``.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import (
    REVERSAL_COST, SWAP_COST, DPMapper, MappingResult, ResultStore, ibm_qx4,
    job_fingerprint, to_qasm,
)
from repro.service.fingerprint import coupling_fingerprint

import harness
import inputs
from harness import Outcome
from inproc import verify
from pace import Pace
from tracing import Tracer, format_table

ARCH = "ibm_qx4"
#: Engine options the listen CLI derives for ``--engine dp`` (default flags).
DP_OPTIONS = {"strategy": "all"}
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Between requests, the client samples the machine's pace (see ``pace``)
#: in blocks of ``PACE_BLOCK`` this often: about 13% of the run.
PACE_INTERVAL_S = 0.25
PACE_BLOCK = 10


@dataclass
class Job:
    kind: str
    circuit_index: int
    latency: float = 0.0
    stretch: tuple = (0.0, 0.0)  # when the job ran, for its pace factor
    submit_s: float = 0.0
    result_s: float = 0.0
    payload: Optional[dict] = None
    error: Optional[str] = None


def _request(conn, method: str, path: str, body: Optional[bytes] = None):
    """One HTTP exchange on *conn*: (status, decoded JSON envelope)."""
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"} if body else {})
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


@dataclass
class Fleet:
    process: subprocess.Popen
    port: int
    worker_pid: int
    boot_s: float
    log: object = None

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            _, envelope = _request(conn, "GET", "/v1/stats")
        finally:
            conn.close()
        (worker,) = envelope["payload"]["workers"].values()
        return worker

    def pids(self) -> List[int]:
        return [self.process.pid, self.worker_pid]

    def stop(self) -> None:
        """SIGTERM (drain), then SIGKILL the whole session if it lingers."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while _alive(self.worker_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(self.worker_pid):
            os.kill(self.worker_pid, signal.SIGKILL)
        if self.process.stdout:
            self.process.stdout.close()
        if self.log:
            self.log.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def boot(env: Dict[str, str], cache_dir: Path) -> Fleet:
    """Launch ``listen``; boot_s runs until the first healthy /v1/healthz."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    log = open(cache_dir / "fleet.log", "w")
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "listen", "--port", "0",
         "--workers", "1", "--service-workers", "1", "--engine", "dp",
         "--cache-dir", str(cache_dir)],
        env=env, cwd=harness.ROOT, stdout=subprocess.PIPE, stderr=log,
        start_new_session=True,
    )
    fleet = None
    try:
        line = b""
        while not line.startswith(b"{"):
            remaining = BOOT_TIMEOUT - (time.perf_counter() - started)
            ready, _, _ = select.select([process.stdout], [], [], max(0.0, remaining))
            if not ready or process.poll() is not None:
                raise RuntimeError("the fleet did not report its port")
            line = process.stdout.readline()
        listening = json.loads(line)
        fleet = Fleet(process, listening["port"], listening["workers"][0]["pid"], 0.0, log)
        while True:
            if time.perf_counter() - started > BOOT_TIMEOUT:
                raise RuntimeError("the fleet never became healthy")
            conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=5)
            try:
                status, envelope = _request(conn, "GET", "/v1/healthz")
                if status == 200 and envelope["payload"].get("ok"):
                    break
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        fleet.boot_s = time.perf_counter() - started
        return fleet
    except BaseException:
        (fleet or Fleet(process, 0, 0, 0.0, log)).stop()
        raise


def _client(fleet: Fleet, script, bodies, tracer: Optional[Tracer],
            pace: Pace) -> List[Job]:
    """Send the script in order, each request after the previous answer."""
    jobs = []
    conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=150)
    try:
        for number, request in enumerate(script):
            pace.sample_every(PACE_INTERVAL_S, PACE_BLOCK)
            job = Job(request.kind, request.circuit_index)
            began = time.perf_counter()
            with tracer.job_span(f"http-{number}") if tracer else nullcontext():
                try:
                    with tracer.span("http.submit") if tracer else nullcontext():
                        status, envelope = _request(
                            conn, "POST", "/v1/jobs", bodies[request.circuit_index])
                    job.submit_s = time.perf_counter() - began
                    if status != 202:
                        raise RuntimeError(f"submit answered {status}: {envelope}")
                    job_id = envelope["payload"]["job_id"]
                    status = 202
                    with tracer.span("http.result") if tracer else nullcontext():
                        while status == 202:
                            status, envelope = _request(
                                conn, "GET", f"/v1/jobs/{job_id}/result?wait=120")
                    if status != 200:
                        raise RuntimeError(f"result answered {status}: {envelope}")
                    job.payload = envelope["payload"]
                except Exception as error:  # noqa: BLE001 - every failure is counted
                    job.error = f"{type(error).__name__}: {error}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=150)
            job.stretch = (began, time.perf_counter())
            job.latency = job.stretch[1] - began
            job.result_s = job.latency - job.submit_s
            jobs.append(job)
    finally:
        conn.close()
    return jobs


@dataclass
class Session:
    """One round: a fresh fleet over a fresh cache directory, one client."""

    cache_dir: Path
    boot_s: float
    jobs: List[Job]
    cpu_s: float
    rss_mb: float
    store_counts: Dict[str, int]
    pace: Pace

    def scaled(self) -> List[float]:
        """Job latencies in reference seconds (see ``pace``)."""
        return [job.latency * self.pace.factor(job.stretch) for job in self.jobs]


def _session(served, preput: List[MappingResult], env, cache_dir: Path,
             tracer: Optional[Tracer]) -> Session:
    """Pre-put, boot, drive the load, read the counters, stop."""
    circuits = served.circuits
    coupling = ibm_qx4()
    store = ResultStore.at(cache_dir)
    for circuit, result in zip(circuits[served.fresh:], preput):
        store.put(job_fingerprint(circuit, coupling, "dp", DP_OPTIONS),
                  result, circuit_fp=circuit.fingerprint(),
                  arch_fp=coupling_fingerprint(coupling))
    bodies = [
        json.dumps({"type": "submit-request", "version": 1, "payload": {
            "qasm": to_qasm(c), "arch": ARCH, "engine": "dp", "circuit_name": c.name,
        }}).encode()
        for c in circuits
    ]
    pace = Pace()
    pace.sample(PACE_BLOCK)
    boot_mark = pace.start()
    fleet = boot(env, cache_dir)
    _, boot_stretch = pace.finish(boot_mark)
    try:
        before = fleet.stats()["store"]
        cpu_before = sum(harness.cpu_seconds(pid) for pid in fleet.pids())
        jobs = _client(fleet, served.script, bodies, tracer, pace)
        cpu = sum(harness.cpu_seconds(pid) for pid in fleet.pids()) - cpu_before
        after = fleet.stats()["store"]
        rss = sum(harness.vm_hwm_mb(pid) for pid in fleet.pids())
    finally:
        fleet.stop()
    pace.sample(PACE_BLOCK)
    counts = {key: after[key] - before[key] for key in ("memory_hits", "disk_hits", "misses", "puts")}
    return Session(cache_dir, fleet.boot_s * pace.factor(boot_stretch), jobs, cpu, rss, counts, pace)


def _check(session: Session, circuits, expected_cost: Callable[[int], int],
           outcome: Outcome, number: int) -> None:
    """Every answer of one round against the DP oracle and the store.

    A repeat must answer exactly what its original answered, and every
    fresh result must have reached the on-disk store.
    """
    coupling = ibm_qx4()
    store = ResultStore.at(session.cache_dir)
    first: Dict[int, dict] = {}
    for job in session.jobs:
        circuit = circuits[job.circuit_index]
        error = job.error
        if error is None:
            answer = job.payload["result"]
            original = first.setdefault(job.circuit_index, answer)
            if original is answer:
                result = MappingResult.from_dict(answer)
                error = verify(result, circuit, coupling)
                expected = expected_cost(job.circuit_index)
                if error is None and result.added_cost != expected:
                    error = f"added cost {result.added_cost} != DP {expected}"
                if error is None and job.kind == "fresh" and store.get(
                    job_fingerprint(circuit, coupling, "dp", DP_OPTIONS)
                ) is None:
                    error = "fresh result missing from the store"
            elif answer["mapped_circuit"] != original["mapped_circuit"]:
                error = "repeat answered differently from its original"
        outcome.record(f"round {number} {job.kind} {circuit.name}", error)


def _counters(session: Session) -> List[dict]:
    counters = [
        {"kind": job.kind, "circuit": job.circuit_index,
         "cache_hit": bool(job.payload and job.payload["provenance"].get("cache_hit")),
         "batch_size": job.payload["provenance"].get("batch_size", 0) if job.payload else 0,
         "transitions": (job.payload["result"]["statistics"].get("transitions_evaluated", 0)
                         if job.payload and job.kind == "fresh" else 0)}
        for job in session.jobs
    ]
    counters.append({"store": session.store_counts})
    return counters


def run_serve_http(seed: int, size: inputs.Size, trace: bool, env, work: Path) -> Outcome:
    served = inputs.serve_http(seed, size)
    # The DP oracle runs in this process: it maps the pre-put circuits once,
    # for every round's store, and each fresh circuit after the load.
    oracle = DPMapper(ibm_qx4())
    preput = [oracle.map(circuit) for circuit in served.circuits[served.fresh:]]
    sessions = [
        _session(served, preput, env, work / f"round-{number}", None)
        for number in range(inputs.ROUNDS["serve-http"])
    ]
    # The traced round records client spans only: the worker's layers are
    # reached through provenance and /v1/stats, never from this process.
    tracer = Tracer() if trace else None
    if tracer:
        sessions.append(_session(served, preput, env, work / "round-traced", tracer))

    expected = [oracle.map(circuit).added_cost for circuit in served.circuits[:served.fresh]]
    expected += [result.added_cost for result in preput]
    outcome = Outcome(attempted=sum(len(session.jobs) for session in sessions))
    for number, session in enumerate(sessions, start=1):
        _check(session, served.circuits, expected.__getitem__, outcome, number)
    counters_by_round = [_counters(session) for session in sessions]
    outcome.counters = counters_by_round[0]
    outcome.drift = harness.round_drift(counters_by_round)

    timed = sessions[:inputs.ROUNDS["serve-http"]]
    fresh = [request.kind == "fresh" for request in served.script]
    timings = harness.timing_metrics([session.scaled() for session in timed], fresh)
    answered = [job for job in timed[0].jobs if job.payload]
    boot_times = [session.boot_s for session in timed]
    outcome.report.append(harness.pace_line(
        [sum(job.latency for job in session.jobs) for session in timed],
        [session.pace.factor() for session in timed],
    ))
    outcome.e2e = {
        "setup_s": harness.median(boot_times),
        **timings,
        "added_cost": sum(SWAP_COST * job.payload["result"]["cost"]["swaps"]
                          + REVERSAL_COST * job.payload["result"]["cost"]["reversals"]
                          for job in answered if job.kind == "fresh"),
        "peak_rss_mb": harness.median([session.rss_mb for session in timed]),
    }
    if tracer:
        traced = sessions[-1]
        traced_map_s = sum(job.latency for job in traced.jobs)
        table = tracer.layer_table()
        jobs = [job for session in timed for job in session.jobs if job.payload]
        solved = [job for job in jobs if job.kind == "fresh"]
        counts = timed[0].store_counts
        hits = counts["memory_hits"] + counts["disk_hits"]
        outcome.layers = {
            # Worker-reported DP seconds of the fresh jobs, per-job means.
            "dp.map_s": sum(statistics.mean(column) for column in zip(*(
                [job.payload["result"]["runtime_seconds"] if job.payload else 0.0
                 for job in session.jobs if job.kind == "fresh"]
                for session in timed
            ))),
            "dp.transitions": sum(c["transitions"] for c in outcome.counters[:-1]),
            "store.disk_hit_frac": counts["disk_hits"] / hits if hits else 0.0,
            "service.job_s": harness.median([
                job.payload["provenance"].get("elapsed_seconds", 0.0) for job in solved
            ]),
            "service.batch_size": sum(
                job.payload["provenance"].get("batch_size", 1) for job in solved
            ) / len(solved),
            "http.submit_s": harness.median([job.submit_s for job in jobs]),
            "http.result_s": harness.median([job.result_s for job in jobs]),
            "http.overhead_s": harness.median([
                job.latency - job.payload["provenance"].get("elapsed_seconds", 0.0)
                for job in jobs
            ]),
            "http.errors": sum(1 for session in sessions for job in session.jobs if job.error),
            "fleet.boot_s": harness.median(boot_times),
            "fleet.cpu_s": harness.median([session.cpu_s for session in timed]),
            "trace.overhead": sum(traced.scaled()) / timings["map_s"] - 1,
            # The job span's own time: the client between and around its two
            # calls.  The worker's time is inside http.result, not split.
            "trace.unattributed_frac": table["job"]["self_s"] / traced_map_s,
        }
        outcome.tracer = tracer
        outcome.report.append(format_table("serve-http", tracer, traced_map_s))
    return outcome

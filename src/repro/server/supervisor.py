"""Multi-process supervisor: N worker processes behind one :class:`JobServer`.

The :class:`Supervisor` is a process manager plus the job backend of the
one HTTP router, :class:`~repro.server.app.JobServer` (which it owns).  Its
workers are ``python -m repro.server.worker`` subprocesses, each a
:class:`~repro.service.service.MappingService` over the shared on-disk
SQLite store, driven over its stdio pipes (see :mod:`repro.server.worker`).

* Every public job id is minted once, from one fleet-wide counter, as
  ``<worker>-job-<n>``; the worker runs the job under that id, so an id is
  never reused.  A submit is journalled (one commit, its worker set), then
  sent to the least-loaded healthy worker, and retried on another when
  that worker does not take it.
* The supervisor keeps each job's latest snapshot and, once finished, its
  result: reads never touch a worker, and a finished job survives its
  worker's death without being re-run.
* A worker is lost at stdout EOF, or when :data:`HEARTBEAT_MISS_LIMIT`
  heartbeats in a row go missing (hung, or dead while a child process
  holds its pipe).  It is killed and replaced, and its unfinished jobs are
  redelivered under their ids.
* A prune runs the shared-store TTL sweep on one worker and flushes every
  worker's LRU.  Stopping closes each worker's stdin and reads until its
  stdout closes; jobs of a worker that dies meanwhile settle as
  ``service-unavailable``.  Workers exit when their stdin closes, so they
  never outlive a killed supervisor.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import faults
from repro.server.app import PRUNE_COUNTERS, JobServer, as_service_error
from repro.server.protocol import PruneRequest, SubmitRequest
from repro.service.errors import (
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
    ServiceUnavailable,
    StoreError,
)
from repro.service.service import DONE, FAILED
from repro.service.store import JobJournal

#: Seconds between load heartbeats of each worker.
HEARTBEAT_INTERVAL = 0.5
#: Consecutive missed heartbeats after which a worker counts as lost.
HEARTBEAT_MISS_LIMIT = 3
#: Seconds a freshly spawned worker gets to print its readiness line.
STARTUP_TIMEOUT = 60.0
#: Seconds draining workers get to close their stdout before SIGKILL.
DRAIN_TIMEOUT = 60.0
#: Seconds a worker gets to answer one request on its channel.
UPSTREAM_TIMEOUT = 300.0
#: Longest JSON line either side of a worker channel accepts (bytes).
CHANNEL_LINE_LIMIT = 1 << 26

_REQUEST_IDS = itertools.count(1)


@dataclass
class WorkerHandle:
    """Everything the supervisor tracks about one worker process."""

    worker_id: str
    process: Optional[asyncio.subprocess.Process] = None
    restarts: int = 0
    healthy: bool = False
    queue_depth: int = 0
    in_flight: int = 0
    last_assigned: float = 0.0
    reader: Optional[asyncio.Task] = field(default=None, repr=False)
    replies: Dict[int, asyncio.Future] = field(default_factory=dict, repr=False)

    @property
    def load(self) -> int:
        return self.queue_depth + self.in_flight

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def describe(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "healthy": self.healthy,
            "restarts": self.restarts,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
        }

    async def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request down the worker's stdin and await its reply."""
        try:
            if faults.ARMED and faults.fire("worker.dispatch") == "drop":
                raise ConnectionResetError("injected dispatch drop")
            if self.process is None or not self.healthy:
                raise ConnectionResetError("worker is not running")
            request_id = next(_REQUEST_IDS)
            reply = self.replies[request_id] = (
                asyncio.get_running_loop().create_future()
            )
            try:
                line = json.dumps({"id": request_id, "op": op, **fields})
                self.process.stdin.write(line.encode() + b"\n")
                await self.process.stdin.drain()
                answer = await asyncio.wait_for(reply, UPSTREAM_TIMEOUT)
            finally:
                self.replies.pop(request_id, None)
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            failed = ServiceError(
                f"worker {self.worker_id} did not answer: {error}",
                details={"worker": self.worker_id,
                         "error_type": type(error).__name__},
            )
            failed.code = "upstream-failed"
            raise failed from error
        if not answer["ok"]:
            raise as_service_error(answer["error"])
        return answer


@dataclass
class FleetJob:
    """What the supervisor knows of one job, whichever worker runs it."""

    request: Dict[str, Any]  # the submit envelope, replayed on redelivery
    worker_id: Optional[str] = None  # None while awaiting redelivery
    dispatching: bool = False
    snapshot: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)


class Supervisor:
    """Spawn and supervise mapping-service workers behind one public port.

    Args:
        workers: Number of worker processes.
        host/port: Public bind address (port ``0`` picks a free port).
        cache_dir: Shared persistent cache directory.  ``None`` creates a
            private temporary directory so the workers still share one
            SQLite store (cross-worker cache hits are the point).
        **config: The workers' service options (``arch``, ``engine``,
            ``engine_options``, ``service_workers``, ``executor``,
            ``result_ttl``; see :meth:`ServiceBackend.build`).
    """

    role = "supervisor"

    def __init__(self, *, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, cache_dir: Optional[str] = None,
                 **config: Any):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self._temp_cache: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._temp_cache = tempfile.TemporaryDirectory(
                prefix="repro-supervisor-"
            )
            cache_dir = self._temp_cache.name
        self.cache_dir = cache_dir
        self.config = dict(config, cache_dir=cache_dir)
        self.server = JobServer(backend=self, host=host, port=port)
        self.workers = [WorkerHandle(f"w{index}") for index in range(workers)]
        self.draining = False
        #: Job transitions of every worker, relayed by the server's stream.
        self.events: asyncio.Queue = asyncio.Queue()
        #: ``None`` when the journal could not be opened (stats say so).
        self.journal: Optional[JobJournal] = None
        self._journal_errors = 0
        self._jobs: Dict[str, FleetJob] = {}
        self._job_numbers = itertools.count(1)
        self._redeliveries = 0
        self._lost = 0

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> "Supervisor":
        """Spawn all workers, wait for readiness, bind the public port."""
        await self.server.start()
        return self

    async def stop(self) -> None:
        """Graceful drain: close the public port, then drain every worker."""
        await self.server.stop()

    async def __aenter__(self) -> "Supervisor":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Backend lifecycle (driven by the server)
    # ------------------------------------------------------------------
    async def open(self) -> None:
        with contextlib.suppress(StoreError, OSError):
            self.journal = JobJournal.at(self.cache_dir)
        await asyncio.gather(*(self._spawn(handle) for handle in self.workers))

    async def close(self, drain: bool = True) -> None:
        """Drain every worker; then settle whatever no worker settled."""
        self.draining = True
        for handle in self.workers:
            self._drain(handle)
        # A restart under way when the drain began adds one more reader.
        while readers := [h.reader for h in self.workers
                          if h.reader is not None and not h.reader.done()]:
            _, late = await asyncio.wait(readers, timeout=DRAIN_TIMEOUT)
            for handle in self.workers:
                if late and handle.process is not None:
                    with contextlib.suppress(ProcessLookupError):
                        handle.process.kill()
        for job_id, job in list(self._jobs.items()):
            if not job.done.is_set() and job.snapshot is not None:
                await self._settle_lost(
                    job_id, job,
                    "supervisor drained before the job reached a terminal state",
                )
        if self._temp_cache is not None:
            self._temp_cache.cleanup()
            self._temp_cache = None

    def describe(self) -> Dict[str, Any]:
        return {"workers": [handle.describe() for handle in self.workers]}

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start the process behind *handle* and await its readiness line."""
        if faults.ARMED:
            faults.fire("worker.spawn")  # raises like a failed exec would
        import repro

        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(repro.__file__).parent.parent),
            environment.get("PYTHONPATH"),
        )))
        config = dict(self.config, worker_id=handle.worker_id)
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.server.worker", json.dumps(config),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL, env=environment,
            limit=CHANNEL_LINE_LIMIT,
        )
        try:
            ready = await asyncio.wait_for(
                process.stdout.readline(), STARTUP_TIMEOUT
            )
        except asyncio.TimeoutError:
            ready = b""
        if not ready:
            with contextlib.suppress(ProcessLookupError):
                process.kill()
            await process.wait()
            raise ServiceError(
                f"worker {handle.worker_id} did not become ready "
                f"(exit code {process.returncode})"
            )
        handle.process, handle.healthy = process, True
        handle.reader = asyncio.ensure_future(self._read(handle, process))
        if self.draining:
            self._drain(handle)  # respawned just as the fleet began to drain

    @staticmethod
    def _drain(handle: WorkerHandle) -> None:
        """Close the worker's stdin: it finishes its jobs, then exits."""
        handle.healthy = False
        if handle.process is not None:
            handle.process.stdin.close()

    async def _read(self, handle: WorkerHandle, process) -> None:
        """Apply one worker incarnation's stdout lines until it is lost."""
        # HEARTBEAT_MISS_LIMIT heartbeats in a row, each allowed four
        # intervals to arrive, is the silence that marks a worker lost.
        silence = HEARTBEAT_INTERVAL * 4 * HEARTBEAT_MISS_LIMIT
        try:
            while line := await asyncio.wait_for(
                process.stdout.readline(), silence
            ):
                await self._receive(handle, json.loads(line))
        except (asyncio.TimeoutError, ValueError, KeyError, OSError):
            pass  # silence, or a line outside the protocol: the worker is lost
        await self._lose(handle, process)

    async def _receive(self, handle: WorkerHandle,
                       message: Dict[str, Any]) -> None:
        """Apply one line of a worker's stdout.

        Lines arrive in the order the worker wrote them and each carries
        the job's snapshot as of that write, so the latest line wins.  A
        line about a job this worker no longer owns is ignored.
        """
        snapshot = message.get("snapshot")
        job = self._jobs.get(snapshot["job_id"]) if snapshot else None
        if job is not None and job.worker_id == handle.worker_id:
            if "event" in message:
                self.events.put_nowait(
                    dict(message["event"], worker=handle.worker_id)
                )
            if not job.done.is_set():
                job.snapshot = snapshot
                if snapshot["status"] in (DONE, FAILED):
                    await self._finish(snapshot["job_id"], job,
                                       message["result"])
        if "id" in message:
            reply = handle.replies.get(message["id"])
            if reply is not None and not reply.done():
                reply.set_result(message)
        elif message.get("op") == "load":
            handle.queue_depth = message["queue_depth"]
            handle.in_flight = message["in_flight"]

    async def _finish(self, job_id: str, job: FleetJob,
                      result: Optional[Dict[str, Any]] = None) -> None:
        job.result = result
        job.done.set()
        error = job.snapshot.get("error")
        await self._journal(
            "mark_terminal", job_id, error["code"] if error else None
        )

    async def _settle_lost(self, job_id: str, job: FleetJob,
                           reason: str) -> None:
        self._lost += 1
        error = ServiceUnavailable(reason, details={"job_id": job_id})
        await self._settle_failed(job_id, job, error)

    async def _settle_failed(self, job_id: str, job: FleetJob,
                             error: ServiceError, **provenance: Any) -> None:
        """Fail a job no worker will report on, the way a worker would."""
        snapshot = dict(job.snapshot, status=FAILED, error=error.to_dict())
        snapshot["provenance"] = dict(snapshot["provenance"], **provenance)
        job.snapshot = snapshot
        self.events.put_nowait({
            key: snapshot[key] for key in (
                "job_id", "status", "fingerprint", "circuit_name", "arch",
                "engine",
            )
        } | {"error_code": error.code, "worker": None})
        await self._finish(job_id, job)

    async def _lose(self, handle: WorkerHandle, process) -> None:
        """One worker incarnation is gone: replace it, redeliver its jobs."""
        handle.healthy = False
        handle.process = None
        if process.returncode is None and not self.draining:
            process.kill()
        try:
            await asyncio.wait_for(process.wait(), DRAIN_TIMEOUT)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
        for reply in handle.replies.values():
            if not reply.done():
                reply.set_exception(ConnectionResetError("worker exited"))
        for job_id, job in list(self._jobs.items()):
            if job.worker_id == handle.worker_id and not job.done.is_set():
                job.worker_id = None
                if self.draining and not job.dispatching:
                    await self._settle_lost(
                        job_id, job,
                        f"worker {handle.worker_id} died during drain; "
                        "job was not redelivered",
                    )
        while not self.draining:
            handle.restarts += 1
            try:
                await self._spawn(handle)
            except (ServiceError, OSError):  # OSError: a failed exec
                await asyncio.sleep(HEARTBEAT_INTERVAL)
                continue
            await self._redeliver()
            return

    # ------------------------------------------------------------------
    # Journal, routing and redelivery
    # ------------------------------------------------------------------
    async def _journal(self, operation: str, *args: Any) -> None:
        """One journal write off-loop; a failure degrades durability only."""
        if self.journal is None:
            return
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, getattr(self.journal, operation), *args
            )
        except StoreError:
            self._journal_errors += 1

    def _pick_worker(self, exclude: Sequence[str] = ()) -> WorkerHandle:
        candidates = [
            handle for handle in self.workers
            if handle.healthy and handle.worker_id not in exclude
        ]
        if not candidates:
            raise ServiceUnavailable(
                "no healthy worker available; retry shortly",
                details={"workers": len(self.workers)},
            )
        chosen = min(candidates, key=lambda h: (h.load, h.last_assigned))
        chosen.last_assigned = asyncio.get_running_loop().time()
        chosen.queue_depth += 1  # spread a burst between two heartbeats
        return chosen

    async def _dispatch(self, job_id: str, job: FleetJob,
                        body: Optional[bytes] = None,
                        handle: Optional[WorkerHandle] = None) -> Dict[str, Any]:
        """Hand *job* to a worker, trying the others when one does not answer.

        A fresh submit (*body* given) is journalled before its worker sees
        it; a redelivery bumps the journal's redelivery count instead.
        Returns the accepting worker's snapshot.
        """
        tried: List[str] = []
        last_error: Optional[ServiceError] = None
        job.dispatching = True
        try:
            while True:
                if handle is None:
                    try:
                        handle = self._pick_worker(exclude=tried)
                    except ServiceUnavailable as error:
                        raise last_error or error from None
                job.worker_id = handle.worker_id
                if body is not None:
                    await self._journal("record", job_id, body, handle.worker_id)
                else:
                    await self._journal("redelivered", job_id, handle.worker_id)
                try:
                    reply = await handle.call(
                        "submit", job_id=job_id, submit=job.request
                    )
                    return reply["snapshot"]
                except ServiceError as error:
                    if error.code != "upstream-failed":
                        raise
                    tried.append(handle.worker_id)
                    last_error, handle = error, None
        except ServiceError:
            job.worker_id = None
            raise
        finally:
            job.dispatching = False

    async def _redeliver(self) -> None:
        """Hand every orphaned job to a live worker under its original id.

        At-least-once: a job whose completion died with its worker re-runs
        (the fingerprint cache makes the repeat cheap).  Jobs that find no
        live worker wait for the next successful spawn.
        """
        for job_id, job in list(self._jobs.items()):
            if job.worker_id or job.dispatching or job.done.is_set():
                continue
            try:
                await self._dispatch(job_id, job)
            except ServiceError as error:
                if error.code in ("upstream-failed", "service-unavailable"):
                    return
                await self._settle_failed(job_id, job, error)
                continue
            self._redeliveries += 1

    # ------------------------------------------------------------------
    # Job backend (called by the server)
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> FleetJob:
        job = self._jobs.get(job_id)
        if job is None or job.snapshot is None:
            raise JobNotFoundError(
                f"unknown job {job_id!r}", details={"job_id": job_id}
            )
        return job

    async def submit(self, message: SubmitRequest,
                     body: bytes = b"") -> Dict[str, Any]:
        handle = self._pick_worker()
        job_id = f"{handle.worker_id}-job-{next(self._job_numbers):06d}"
        job = self._jobs[job_id] = FleetJob(request=message.to_wire())
        try:
            return await self._dispatch(job_id, job, body, handle)
        except ServiceError as error:
            del self._jobs[job_id]
            await self._journal("mark_terminal", job_id, error.code)
            raise

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._job(job_id).snapshot

    async def cancel(self, job_id: str,
                     reason: Optional[str] = None) -> Dict[str, Any]:
        """Cancel on the owning worker.  A job awaiting redelivery, or whose
        worker cannot be reached, is cancelled here and never runs again."""
        job = self._job(job_id)
        owner = next(
            (h for h in self.workers if h.worker_id == job.worker_id), None
        )
        if owner is not None and not job.done.is_set():
            try:
                await owner.call("cancel", job_id=job_id, reason=reason)
            except ServiceError as error:
                if error.code not in ("upstream-failed", "job-not-found"):
                    raise
        if not job.done.is_set():
            job.worker_id = None
            await self._settle_failed(
                job_id, job,
                JobCancelledError(
                    reason or "job cancelled by client request",
                    details={"job_id": job_id},
                ),
                cancelled=True,
            )
        return job.snapshot

    async def result(self, job_id: str, wait: Optional[float] = None):
        job = self._job(job_id)
        if wait is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(job.done.wait(), wait)
        return job.snapshot, job.result

    async def _ask(self, handle: WorkerHandle, op: str, key: str,
                   **fields: Any) -> Dict[str, Any]:
        """One worker's *key* answer to *op*, or its error as a dict."""
        try:
            return (await handle.call(op, **fields))[key]
        except ServiceError as error:
            return {"error": error.to_dict()}

    async def stats(self, server: Dict[str, Any]):
        """The fleet aggregate, and every worker's own stats as of now."""
        reports = await asyncio.gather(
            *(self._ask(handle, "stats", "stats") for handle in self.workers)
        )
        processes = {h.worker_id: h.describe() for h in self.workers}
        aggregate = {
            "workers": len(self.workers),
            "healthy_workers": sum(h.healthy for h in self.workers),
            "restarts": sum(h.restarts for h in self.workers),
            "queue_depth": sum(h.queue_depth for h in self.workers),
            "in_flight": sum(h.in_flight for h in self.workers),
            "requests_served": server["requests_served"],
            "redeliveries": self._redeliveries,
            "journal_enabled": self.journal is not None,
            "journal_errors": self._journal_errors,
            "lost_jobs": self._lost,
            "uptime_seconds": server["uptime_seconds"],
            "cache_dir": self.cache_dir,
            "worker_processes": processes,
        }
        return aggregate, dict(zip(processes, reports))

    def health(self) -> Dict[str, Any]:
        return {
            "ok": any(h.healthy for h in self.workers),
            "queue_depth": sum(h.queue_depth for h in self.workers),
            "in_flight": sum(h.in_flight for h in self.workers),
            "workers": {h.worker_id: h.describe() for h in self.workers},
        }

    async def prune(self, message: PruneRequest) -> Dict[str, Any]:
        """Prune the shared rows through one worker, flush every LRU."""
        healthy = [handle for handle in self.workers if handle.healthy]
        if not healthy:
            raise ServiceUnavailable("no healthy worker to prune through")
        per_worker = {
            handle.worker_id: await self._ask(
                handle, "flush", "report", prune=PruneRequest(
                    ttl_seconds=message.ttl_seconds if index == 0 else None,
                    flush_memory=message.flush_memory,
                ).to_wire(),
            )
            for index, handle in enumerate(healthy)
        }
        totals = {
            key: sum(report.get(key, 0) for report in per_worker.values())
            for key in PRUNE_COUNTERS
        }
        return dict(totals, ttl_seconds=message.ttl_seconds,
                    cache_dir=self.cache_dir, per_worker=per_worker)


__all__ = [
    "CHANNEL_LINE_LIMIT",
    "DRAIN_TIMEOUT",
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_MISS_LIMIT",
    "STARTUP_TIMEOUT",
    "Supervisor",
    "WorkerHandle",
]

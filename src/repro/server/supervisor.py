"""Multi-process supervisor: N worker processes behind one public port.

The :class:`Supervisor` is a protocol-aware reverse proxy plus process
manager.  It spawns ``python -m repro.server.worker`` subprocesses (one
:class:`~repro.server.app.JobServer` each, all over the same on-disk SQLite
result store), binds the public port itself, and:

* **routes** new submissions to the least-loaded worker (smallest
  ``queue_depth + in_flight`` from the latest heartbeat, least-recently
  assigned wins ties) and namespaces job ids as ``w0-job-000001`` so every
  later ``GET`` finds its way back to the owning worker;
* **monitors** workers with a heartbeat poll of ``GET /v1/healthz`` and
  restarts any worker whose process died or that missed
  :data:`HEARTBEAT_MISS_LIMIT` consecutive heartbeats (kill -9 included —
  jobs that lived only in that worker's memory are reported as upstream
  failures and can simply be resubmitted; completed work survives in the
  shared store);
* **broadcasts** cache invalidations: ``POST /v1/cache/prune`` prunes the
  shared SQLite rows through one worker, then tells every worker to drop
  its in-memory LRU so no stale fingerprint is served from memory;
* **fans in** the workers' ``/v1/stream`` WebSockets into a single public
  ``/v1/stream`` (job ids rewritten to their namespaced form), reconnecting
  whenever a worker restarts; every public envelope carries a monotonically
  increasing ``seq`` and the last :data:`STREAM_REPLAY_SIZE` envelopes are
  retained, so a subscriber that reconnects with ``?since=<seq>`` replays
  the transitions it missed before resuming live delivery;
* **drains** on SIGTERM: the public socket closes first, then every worker
  gets SIGTERM and finishes in-flight jobs before the supervisor exits.

Everything speaks :mod:`repro.server.protocol` envelopes; worker
connection failures surface as ``upstream-failed`` (HTTP 502) error
envelopes rather than hung sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.server import wire
from repro.server.protocol import (
    ErrorEnvelope,
    HealthReport,
    ProtocolError,
    PruneReport,
    PruneRequest,
    StatsReport,
    from_wire,
)
from repro.service.errors import (
    JobNotFoundError,
    ServiceError,
    ServiceUnavailable,
    StoreError,
)
from repro.service.store import JobJournal, JOURNAL_TERMINAL

#: Seconds between heartbeat polls of each worker.
HEARTBEAT_INTERVAL = 0.5
#: Consecutive failed heartbeats after which a worker is declared dead.
HEARTBEAT_MISS_LIMIT = 3
#: Seconds a freshly spawned worker gets to print its readiness line.
STARTUP_TIMEOUT = 60.0
#: Seconds a SIGTERM'd worker gets to drain before SIGKILL.
DRAIN_TIMEOUT = 60.0
#: Per-request timeout of supervisor → worker proxy calls.
UPSTREAM_TIMEOUT = 300.0
#: Capacity of each public stream subscriber queue (drop-oldest beyond it).
SUBSCRIBER_QUEUE_SIZE = 1024
#: Recent stream envelopes retained for ``?since=<seq>`` catch-up replay.
STREAM_REPLAY_SIZE = 4096


def _free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently free TCP port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _upstream_error(worker_id: str, error: Exception) -> ServiceError:
    failed = ServiceError(
        f"worker {worker_id} did not answer: {error}",
        details={"worker": worker_id, "error_type": type(error).__name__},
    )
    failed.code = "upstream-failed"
    return failed


def _redelivery_pending(job_id: str) -> JobNotFoundError:
    """The retryable not-found answer for a slot taken over by redelivery."""
    return JobNotFoundError(
        f"job id {job_id!r} is being redelivered after a worker restart; "
        "retry shortly"
    )


@dataclass
class WorkerHandle:
    """Everything the supervisor tracks about one worker process."""

    worker_id: str
    port: int = 0
    process: Optional[asyncio.subprocess.Process] = None
    restarts: int = 0
    healthy: bool = False
    missed_heartbeats: int = 0
    queue_depth: int = 0
    in_flight: int = 0
    last_assigned: float = 0.0
    stream_task: Optional[asyncio.Task] = field(default=None, repr=False)

    @property
    def load(self) -> int:
        return self.queue_depth + self.in_flight

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def describe(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "port": self.port,
            "pid": self.pid,
            "healthy": self.healthy,
            "restarts": self.restarts,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
        }


class Supervisor:
    """Spawn, monitor and proxy a fleet of mapping-service workers.

    Args:
        workers: Number of worker processes.
        host/port: Public bind address (port ``0`` picks a free port).
        arch: Architecture names every worker registers.
        engine: Default mapping engine of every worker.
        engine_options: Engine constructor options forwarded verbatim.
        service_workers: Solver pool size inside each worker.
        executor: ``thread`` or ``process`` solver pool per worker.
        cache_dir: Shared persistent cache directory.  ``None`` creates a
            private temporary directory so the workers still share one
            SQLite store (cross-worker cache hits are the point of the
            supervisor).
        result_ttl: Result-store TTL forwarded to every worker.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        arch: Sequence[str] = ("ibm_qx4",),
        engine: str = "dp",
        engine_options: Optional[Dict[str, Any]] = None,
        service_workers: int = 2,
        executor: str = "thread",
        cache_dir: Optional[str] = None,
        result_ttl: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.host = host
        self.port = port
        self.num_workers = workers
        self.arch = list(arch)
        self.engine = engine
        self.engine_options = dict(engine_options or {})
        self.service_workers = service_workers
        self.executor = executor
        self._temp_cache: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._temp_cache = tempfile.TemporaryDirectory(
                prefix="repro-supervisor-"
            )
            cache_dir = self._temp_cache.name
        self.cache_dir = cache_dir
        self.result_ttl = result_ttl
        self.workers: List[WorkerHandle] = []
        self.draining = False
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._subscribers: set = set()
        self._stream_seq = 0
        self._stream_replay: Deque[Dict[str, Any]] = deque(
            maxlen=STREAM_REPLAY_SIZE
        )
        self._requests_served = 0
        #: Durable submit journal (shares the workers' results.sqlite).
        #: ``None`` when opening it failed — serving continues, durability
        #: degrades, and stats report the condition truthfully.
        self.journal: Optional[JobJournal] = None
        self._journal_errors = 0
        self._submit_seq = 0
        #: Redelivered jobs keep their original public id:
        #: public id -> (current worker id, current worker-local id) ...
        self._aliases: Dict[str, Tuple[str, str]] = {}
        #: ... and the reverse, for rewriting worker payloads on the way out.
        self._redelivered_public: Dict[Tuple[str, str], str] = {}
        #: Jobs that died with their worker when no redelivery target was
        #: available (drain race): public id -> structured error dict.
        self._lost: Dict[str, Dict[str, Any]] = {}
        #: Public ids with a lazy result recovery in flight, so concurrent
        #: polls don't double-dispatch the same replay.
        self._recovering: Set[str] = set()
        self._redeliveries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Supervisor":
        """Spawn all workers, wait for readiness, bind the public port."""
        try:
            self.journal = JobJournal.at(self.cache_dir)
        except (StoreError, OSError):
            self.journal = None  # durability degraded, serving continues
        self.workers = [
            WorkerHandle(worker_id=f"w{index}")
            for index in range(self.num_workers)
        ]
        await asyncio.gather(
            *(self._spawn(handle) for handle in self.workers)
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=wire.MAX_HEADER_BYTES,
            reuse_address=True,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        return self

    async def stop(self) -> None:
        """Graceful drain: close the public port, SIGTERM every worker.

        A worker that crashed while the drain was already underway gets no
        replacement and no redelivery (the fleet is going away) — its
        unfinished journal entries are settled as ``service-unavailable``
        instead, so no accepted job is left in a non-terminal state.
        """
        self.draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
            self._heartbeat_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for handle in self.workers:
            if handle.stream_task is not None:
                handle.stream_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await handle.stream_task
                handle.stream_task = None
        # Workers that died during the drain race: their in-memory jobs are
        # unrecoverable now, so settle them before terminating the rest.
        for handle in self.workers:
            process = handle.process
            if process is not None and process.returncode is not None:
                await self._fail_lost(handle)
        await asyncio.gather(
            *(self._terminate(handle) for handle in self.workers)
        )
        # Whatever is still journalled as unfinished (jobs the live workers
        # failed during their own drain, whose terminal events we no longer
        # observed) is equally dead with the fleet — settle it truthfully.
        await self._settle_remaining_journal()
        if self._temp_cache is not None:
            self._temp_cache.cleanup()
            self._temp_cache = None

    async def __aenter__(self) -> "Supervisor":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() the supervisor first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------
    def _worker_command(self, handle: WorkerHandle) -> List[str]:
        command = [
            sys.executable, "-m", "repro.server.worker",
            "--host", "127.0.0.1",
            "--port", str(handle.port),
            "--worker-id", handle.worker_id,
            "--engine", self.engine,
            "--service-workers", str(self.service_workers),
            "--executor", self.executor,
            "--cache-dir", self.cache_dir,
        ]
        for name in self.arch:
            command += ["--arch", name]
        if self.engine_options:
            command += ["--engine-options", json.dumps(self.engine_options)]
        if self.result_ttl is not None:
            command += ["--result-ttl", str(self.result_ttl)]
        return command

    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start (or restart) the process behind *handle* and await readiness."""
        if faults.ARMED:
            try:
                faults.fire("worker.spawn")
            except faults.FaultInjectedError as error:
                # Surface as the same ServiceError a real spawn failure
                # produces so _restart's retry path handles both alike.
                raise ServiceError(
                    f"worker {handle.worker_id} spawn failed: {error}"
                ) from error
        handle.port = _free_port()
        handle.healthy = False
        handle.missed_heartbeats = 0
        environment = dict(os.environ)
        import repro

        src_dir = str(__import__("pathlib").Path(repro.__file__).parent.parent)
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        handle.process = await asyncio.create_subprocess_exec(
            *self._worker_command(handle),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=environment,
        )
        try:
            line = await asyncio.wait_for(
                handle.process.stdout.readline(), STARTUP_TIMEOUT
            )
        except asyncio.TimeoutError:
            handle.process.kill()
            raise ServiceError(
                f"worker {handle.worker_id} failed to become ready within "
                f"{STARTUP_TIMEOUT:.0f}s"
            ) from None
        if not line:
            raise ServiceError(
                f"worker {handle.worker_id} exited before becoming ready "
                f"(code {handle.process.returncode})"
            )
        ready = json.loads(line)
        handle.port = ready["port"]
        handle.healthy = True
        if handle.stream_task is None:
            handle.stream_task = asyncio.ensure_future(
                self._stream_pump(handle)
            )

    async def _terminate(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is None or process.returncode is not None:
            return
        process.terminate()
        try:
            await asyncio.wait_for(process.wait(), DRAIN_TIMEOUT)
        except asyncio.TimeoutError:  # pragma: no cover - unresponsive worker
            process.kill()
            await process.wait()

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            for handle in self.workers:
                await self._heartbeat(handle)

    async def _heartbeat(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None and process.returncode is not None:
            await self._restart(handle, reason="process exited")
            return
        try:
            status, _headers, body = await wire.http_request(
                "127.0.0.1", handle.port, "GET", "/v1/healthz",
                timeout=HEARTBEAT_INTERVAL * 4,
            )
            payload = json.loads(body)["payload"]
        except (ConnectionError, OSError, asyncio.TimeoutError,
                ValueError, KeyError):
            handle.missed_heartbeats += 1
            if handle.missed_heartbeats >= HEARTBEAT_MISS_LIMIT:
                await self._restart(handle, reason="heartbeats missed")
            return
        handle.missed_heartbeats = 0
        handle.healthy = status == 200 and payload.get("ok", False)
        handle.queue_depth = int(payload.get("queue_depth", 0))
        handle.in_flight = int(payload.get("in_flight", 0))

    async def _restart(self, handle: WorkerHandle, *, reason: str) -> None:
        handle.healthy = False
        handle.restarts += 1
        process = handle.process
        if process is not None and process.returncode is None:
            process.kill()
            await process.wait()
        if handle.stream_task is not None:
            handle.stream_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await handle.stream_task
            handle.stream_task = None
        if self.draining:
            # The fleet is going away; don't replace the worker, settle
            # its unfinished jobs instead (see stop()).
            await self._fail_lost(handle)
            return
        try:
            await self._spawn(handle)
        except ServiceError:  # respawn failure (or injected spawn fault)
            handle.healthy = False
            return
        # The dead process took its in-memory jobs with it; every journal
        # entry it owned that never reached a terminal state is replayed
        # onto a live worker under the original public id.
        await self._redeliver(handle.worker_id)

    # ------------------------------------------------------------------
    # Durable journal + redelivery
    # ------------------------------------------------------------------
    async def _journal_call(self, fn, *args) -> bool:
        """Run one journal operation off-loop; False when it failed.

        Journal failures degrade durability, never availability — the
        submit/stream paths carry on and the error count is reported in
        stats.
        """
        if self.journal is None:
            return False
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, fn, *args)
            return True
        except StoreError:
            self._journal_errors += 1
            return False

    def _public_id(self, worker_id: str, local_id: str) -> str:
        """The public id for a worker-local job id (alias-aware)."""
        return self._redelivered_public.get(
            (worker_id, local_id), f"{worker_id}-{local_id}"
        )

    async def _redeliver(self, worker_id: str) -> None:
        """Replay a dead worker's unfinished journal entries.

        Each entry's original submit body is re-POSTed to a live worker
        (possibly the restarted one) and the original public id is aliased
        to the new worker-local id, so clients polling it never notice the
        move beyond the job restarting.  At-least-once: a job whose
        completion event was lost with the worker re-runs — the
        fingerprint cache makes the repeat cheap.
        """
        if self.journal is None or self.draining:
            return
        loop = asyncio.get_running_loop()
        try:
            entries = await loop.run_in_executor(
                None, self.journal.unfinished, worker_id
            )
        except StoreError:
            self._journal_errors += 1
            return
        for entry in entries:
            public_id = entry["public_id"]
            if public_id in self._lost:
                continue
            try:
                handle, status, envelope = await self._dispatch_submit(
                    entry["body"]
                )
            except ServiceError as error:
                # No live target right now; the entry stays unfinished and
                # the next restart cycle tries again.
                if isinstance(error, ServiceUnavailable):
                    return
                continue
            payload = envelope.get("payload", {})
            new_local = payload.get("job_id")
            if status != 202 or not isinstance(new_local, str):
                continue
            self._aliases[public_id] = (handle.worker_id, new_local)
            self._redelivered_public[(handle.worker_id, new_local)] = public_id
            self._redeliveries += 1
            await self._journal_call(
                self.journal.redelivered, public_id, handle.worker_id,
                new_local,
            )

    async def _recover_lost_result(
        self, public_id: str
    ) -> Optional[Tuple[WorkerHandle, str]]:
        """Lazily replay a *finished* job whose outcome died with its worker.

        Redelivery only covers non-terminal journal entries; a job that
        reached DONE just before its worker was killed is terminal in the
        journal but unknown to the restarted process, so polls for its id
        would 404 forever.  When a poll hits that hole, re-dispatch the
        original submit body (the fingerprint cache makes the repeat cheap)
        and alias the public id to the new run.  Terminal *failures* are
        replayed from the journal directly as their structured error.

        Returns the new ``(handle, local_id)`` home, or ``None`` when the
        caller should let the original not-found answer stand.
        """
        if self.journal is None or self.draining:
            return None
        if public_id in self._recovering:
            return None
        loop = asyncio.get_running_loop()
        try:
            entry = await loop.run_in_executor(
                None, self.journal.get, public_id
            )
        except StoreError:
            self._journal_errors += 1
            return None
        if entry is None or entry["state"] != JOURNAL_TERMINAL:
            # Unknown id, or a non-terminal entry the redelivery sweep
            # already owns — don't race it with a second dispatch.
            return None
        if entry["error_code"] is not None:
            error = ServiceError(
                f"job {public_id!r} failed before its worker died; "
                "replaying its terminal error from the durable journal"
            )
            error.code = entry["error_code"]
            raise error
        self._recovering.add(public_id)
        try:
            try:
                handle, status, envelope = await self._dispatch_submit(
                    entry["body"]
                )
            except ServiceError:
                return None
            payload = envelope.get("payload", {})
            new_local = payload.get("job_id")
            if status != 202 or not isinstance(new_local, str):
                return None
            self._aliases[public_id] = (handle.worker_id, new_local)
            self._redelivered_public[(handle.worker_id, new_local)] = public_id
            self._redeliveries += 1
            await self._journal_call(
                self.journal.redelivered, public_id, handle.worker_id,
                new_local,
            )
            return handle, new_local
        finally:
            self._recovering.discard(public_id)

    async def _fail_lost(self, handle: WorkerHandle) -> None:
        """Settle a dead worker's unfinished jobs when nothing can run them."""
        if self.journal is None:
            return
        loop = asyncio.get_running_loop()
        try:
            entries = await loop.run_in_executor(
                None, self.journal.unfinished, handle.worker_id
            )
        except StoreError:
            self._journal_errors += 1
            return
        for entry in entries:
            public_id = entry["public_id"]
            error = ServiceUnavailable(
                f"worker {handle.worker_id} died during drain; "
                "job was not redelivered",
                details={"job_id": public_id, "worker": handle.worker_id},
            )
            self._lost[public_id] = error.to_dict()
            await self._journal_call(
                self.journal.mark_terminal, public_id, error.code
            )

    async def _settle_remaining_journal(self) -> None:
        """Mark every still-unfinished entry terminal at the end of a drain."""
        if self.journal is None:
            return
        loop = asyncio.get_running_loop()
        try:
            entries = await loop.run_in_executor(None, self.journal.unfinished)
        except StoreError:
            self._journal_errors += 1
            return
        for entry in entries:
            public_id = entry["public_id"]
            error = ServiceUnavailable(
                "supervisor drained before the job reached a terminal state",
                details={"job_id": public_id},
            )
            self._lost.setdefault(public_id, error.to_dict())
            await self._journal_call(
                self.journal.mark_terminal, public_id, error.code
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick_worker(
        self, exclude: Optional[set] = None
    ) -> WorkerHandle:
        candidates = [
            handle for handle in self.workers
            if handle.healthy
            and (exclude is None or handle.worker_id not in exclude)
        ]
        if not candidates:
            raise ServiceUnavailable(
                "no healthy worker available; retry shortly",
                details={"workers": len(self.workers)},
            )
        chosen = min(
            candidates, key=lambda handle: (handle.load, handle.last_assigned)
        )
        chosen.last_assigned = time.monotonic()
        # Optimistic load bump so a burst of submissions between two
        # heartbeats spreads instead of piling onto one worker.
        chosen.queue_depth += 1
        return chosen

    def _worker_for_job(self, job_id: str) -> Tuple[WorkerHandle, str]:
        alias = self._aliases.get(job_id)
        if alias is not None:
            alias_worker, alias_local = alias
            for handle in self.workers:
                if handle.worker_id == alias_worker:
                    return handle, alias_local
        worker_id, _, local_id = job_id.partition("-")
        # A restarted worker reuses its worker id and restarts its local
        # job counter, so a redelivered job may occupy this worker-local
        # slot under a *different* public id.  Routing the request through
        # would hand the caller someone else's job; report not-found
        # instead — the caller's own alias appears once redelivery
        # reaches its journal entry, and clients already ride out the
        # transient 404 window after a crash.
        occupant = self._redelivered_public.get((worker_id, local_id))
        if occupant is not None and occupant != job_id:
            raise _redelivery_pending(job_id)
        for handle in self.workers:
            if handle.worker_id == worker_id and local_id:
                return handle, local_id
        raise JobNotFoundError(
            f"unknown job id {job_id!r} (expected '<worker>-job-<n>')"
        )

    def _prefix_job_ids(self, envelope: Dict[str, Any],
                        worker_id: str) -> Dict[str, Any]:
        payload = envelope.get("payload")
        if isinstance(payload, dict) and isinstance(
            payload.get("job_id"), str
        ):
            # Redelivered jobs keep the public id they were first accepted
            # under, wherever they run now.
            payload["job_id"] = self._public_id(worker_id, payload["job_id"])
        return envelope

    async def _proxy(
        self,
        handle: WorkerHandle,
        method: str,
        target: str,
        body: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            if faults.ARMED:
                mode = faults.fire("worker.dispatch")
                if mode == "drop":
                    raise ConnectionResetError("injected dispatch drop")
            status, _headers, raw = await wire.http_request(
                "127.0.0.1", handle.port, method, target,
                body=body, timeout=UPSTREAM_TIMEOUT,
            )
            return status, json.loads(raw)
        except (wire.RetryableWireError, ConnectionError, OSError,
                asyncio.TimeoutError, ValueError) as error:
            raise _upstream_error(handle.worker_id, error) from error

    async def _dispatch_submit(
        self, body: bytes
    ) -> Tuple[WorkerHandle, int, Dict[str, Any]]:
        """POST one submit body to a worker, trying alternates on failure.

        A worker that refuses or drops the connection (it may be mid-crash
        between two heartbeats) is skipped and the submit retried on the
        next least-loaded healthy worker, so one dying process does not
        surface as a client-visible 502 when siblings could take the job.
        """
        tried: set = set()
        last_error: Optional[ServiceError] = None
        for _ in range(len(self.workers)):
            try:
                handle = self._pick_worker(exclude=tried)
            except ServiceUnavailable as error:
                if last_error is not None:
                    raise last_error
                raise error
            try:
                status, envelope = await self._proxy(
                    handle, "POST", "/v1/jobs", body
                )
                return handle, status, envelope
            except ServiceError as error:
                if error.code != "upstream-failed":
                    raise
                tried.add(handle.worker_id)
                last_error = error
        raise last_error or ServiceUnavailable(
            "no worker accepted the submission"
        )

    # ------------------------------------------------------------------
    # Public HTTP surface
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await wire.read_request(reader)
                except wire.WireError as error:
                    envelope = ErrorEnvelope(
                        error_code="protocol-error",
                        message=str(error),
                        http_status=error.status,
                    )
                    writer.write(
                        wire.json_response(
                            error.status, envelope.to_wire(), keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                self._requests_served += 1
                if request.path == "/v1/stream" and request.is_websocket_upgrade:
                    await self._handle_stream(request, reader, writer)
                    return
                status, envelope = await self._dispatch(request)
                keep_alive = request.keep_alive and not self.draining
                writer.write(
                    wire.json_response(status, envelope, keep_alive=keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return await self._route(request)
        except ServiceError as error:
            envelope = ErrorEnvelope.from_error(error)
            return envelope.http_status, envelope.to_wire()
        except Exception as error:  # noqa: BLE001 - last-resort server error
            envelope = ErrorEnvelope(
                error_code="service-error",
                message=f"internal supervisor error: {error}",
                details={"error_type": type(error).__name__},
            )
            return envelope.http_status, envelope.to_wire()

    async def _route(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        path, method = request.path, request.method
        if path == "/v1/jobs" and method == "POST":
            return await self._submit(request)
        if path.startswith("/v1/jobs/") and method in ("GET", "DELETE"):
            tail = path[len("/v1/jobs/"):]
            suffix = ""
            if method == "GET" and tail.endswith("/result"):
                tail, suffix = tail[: -len("/result")], "/result"
            lost = self._lost.get(tail)
            if lost is not None:
                # The job died with its worker and nothing could take it
                # over; answer with its structured terminal error instead
                # of a misleading 404/502.
                envelope = ErrorEnvelope(
                    error_code=lost.get("code", "service-unavailable"),
                    message=lost.get("message", "job lost with its worker"),
                    details=dict(lost.get("details", {})),
                    http_status=503,
                )
                return 503, envelope.to_wire()
            try:
                handle, local_id = self._worker_for_job(tail)
            except JobNotFoundError:
                if method != "GET":
                    raise
                recovered = await self._recover_lost_result(tail)
                if recovered is None:
                    raise
                handle, local_id = recovered

            def _target(local: str) -> str:
                target = f"/v1/jobs/{local}{suffix}"
                if request.query:
                    pairs = "&".join(
                        f"{key}={value}"
                        for key, value in request.query.items()
                    )
                    target = f"{target}?{pairs}"
                return target

            status, envelope = await self._proxy(
                handle, method, _target(local_id),
                request.body if method == "DELETE" else None,
            )
            if status == 404 and method == "GET":
                # The worker doesn't know the job — usually a restarted
                # process asked about a job that finished on its previous
                # incarnation.  Replay from the journal and re-ask once.
                recovered = await self._recover_lost_result(tail)
                if recovered is not None:
                    handle, local_id = recovered
                    status, envelope = await self._proxy(
                        handle, "GET", _target(local_id), None
                    )
            envelope = self._prefix_job_ids(envelope, handle.worker_id)
            payload = envelope.get("payload")
            if (
                method == "GET"
                and isinstance(payload, dict)
                and isinstance(payload.get("job_id"), str)
                and payload["job_id"] != tail
            ):
                # Redelivery moved another public id into this worker-local
                # slot while the poll was in flight: the answer belongs to
                # that job, not to the one asked about.  (A DELETE that hit
                # the occupant has already cancelled it; a retryable 404
                # would hide that, so its answer passes through.)
                raise _redelivery_pending(tail)
            return status, envelope
        if path == "/v1/stats" and method == "GET":
            return await self._stats()
        if path == "/v1/healthz" and method == "GET":
            return self._healthz()
        if path == "/v1/cache/prune" and method == "POST":
            return await self._prune(request)
        if path == "/v1/stream":
            raise ProtocolError(
                "/v1/stream requires a WebSocket upgrade "
                "(Connection: Upgrade, Upgrade: websocket)"
            )
        known = ("/v1/jobs", "/v1/stats", "/v1/healthz", "/v1/cache/prune")
        if path in known or path.startswith("/v1/jobs/"):
            error = ServiceError(f"method {method} not allowed on {path}")
            error.code = "method-not-allowed"
            raise error
        not_found = ServiceError(f"no such endpoint: {method} {path}")
        not_found.code = "not-found"
        raise not_found

    async def _submit(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Accept one submission: journal first, then dispatch.

        The body is journalled under a provisional id *before* any worker
        sees it, then re-keyed to the public id the dispatch produced —
        so from the moment a client could ever learn a job id, the submit
        is durable and redeliverable.
        """
        provisional: Optional[str] = None
        if self.journal is not None:
            self._submit_seq += 1
            provisional = f"pending-{os.getpid()}-{self._submit_seq:06d}"
            await self._journal_call(
                self.journal.record, provisional, request.body
            )
        try:
            handle, status, envelope = await self._dispatch_submit(
                request.body
            )
        except ServiceError as error:
            if provisional is not None:
                await self._journal_call(
                    self.journal.mark_terminal, provisional, error.code
                )
            raise
        payload = envelope.get("payload", {})
        local_id = payload.get("job_id")
        if status == 202 and isinstance(local_id, str) and self.journal is not None:
            public_id = f"{handle.worker_id}-{local_id}"
            await self._journal_call(
                self.journal.record, public_id, request.body
            )
            await self._journal_call(
                self.journal.assign, public_id, handle.worker_id, local_id
            )
        if provisional is not None:
            await self._journal_call(self.journal.discard, provisional)
        return status, self._prefix_job_ids(envelope, handle.worker_id)

    async def _stats(self) -> Tuple[int, Dict[str, Any]]:
        per_worker: Dict[str, Any] = {}

        async def fetch(handle: WorkerHandle) -> None:
            try:
                _status, envelope = await self._proxy(
                    handle, "GET", "/v1/stats"
                )
                per_worker[handle.worker_id] = envelope.get(
                    "payload", {}
                ).get("stats", {})
            except ServiceError as error:
                per_worker[handle.worker_id] = {"error": error.to_dict()}

        await asyncio.gather(*(fetch(handle) for handle in self.workers))
        aggregate = {
            "workers": len(self.workers),
            "healthy_workers": sum(
                1 for handle in self.workers if handle.healthy
            ),
            "restarts": sum(handle.restarts for handle in self.workers),
            "queue_depth": sum(handle.queue_depth for handle in self.workers),
            "in_flight": sum(handle.in_flight for handle in self.workers),
            "requests_served": self._requests_served,
            "redeliveries": self._redeliveries,
            "journal_enabled": self.journal is not None,
            "journal_errors": self._journal_errors,
            "lost_jobs": len(self._lost),
            "uptime_seconds": (
                time.monotonic() - self.started_at
                if self.started_at is not None
                else 0.0
            ),
            "cache_dir": self.cache_dir,
            "worker_processes": {
                handle.worker_id: handle.describe()
                for handle in self.workers
            },
        }
        report = StatsReport(
            role="supervisor", stats=aggregate, workers=per_worker
        )
        return 200, report.to_wire()

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        report = HealthReport(
            ok=any(handle.healthy for handle in self.workers)
            and not self.draining,
            role="supervisor",
            pid=os.getpid(),
            queue_depth=sum(handle.queue_depth for handle in self.workers),
            in_flight=sum(handle.in_flight for handle in self.workers),
            draining=self.draining,
            workers={
                handle.worker_id: handle.describe()
                for handle in self.workers
            },
        )
        return 200, report.to_wire()

    async def _prune(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        body = request.json()
        if body:
            message = from_wire(body)
            if not isinstance(message, PruneRequest):
                raise ProtocolError(
                    "POST /v1/cache/prune expects a prune-request, got "
                    f"{message.TYPE}"
                )
        else:
            message = PruneRequest()
        healthy = [handle for handle in self.workers if handle.healthy]
        if not healthy:
            raise ServiceUnavailable("no healthy worker to prune through")
        per_worker: Dict[str, Any] = {}
        rows_pruned = bytes_reclaimed = memory_dropped = 0
        artifact_rows_pruned = artifact_bytes_reclaimed = 0
        # The first worker prunes the shared SQLite rows; every worker —
        # including that one — then flushes its in-memory LRU so no stale
        # fingerprint survives anywhere.  This is the cross-worker cache
        # invalidation broadcast.
        for index, handle in enumerate(healthy):
            forward = PruneRequest(
                ttl_seconds=message.ttl_seconds if index == 0 else None,
                flush_memory=message.flush_memory,
            )
            try:
                _status, envelope = await self._proxy(
                    handle, "POST", "/v1/cache/prune",
                    json.dumps(forward.to_wire()).encode(),
                )
                payload = envelope.get("payload", {})
            except ServiceError as error:
                per_worker[handle.worker_id] = {"error": error.to_dict()}
                continue
            per_worker[handle.worker_id] = payload
            rows_pruned += int(payload.get("rows_pruned", 0))
            bytes_reclaimed += int(payload.get("bytes_reclaimed", 0))
            memory_dropped += int(payload.get("memory_dropped", 0))
            artifact_rows_pruned += int(
                payload.get("artifact_rows_pruned", 0)
            )
            artifact_bytes_reclaimed += int(
                payload.get("artifact_bytes_reclaimed", 0)
            )
        report = PruneReport(
            rows_pruned=rows_pruned,
            bytes_reclaimed=bytes_reclaimed,
            memory_dropped=memory_dropped,
            artifact_rows_pruned=artifact_rows_pruned,
            artifact_bytes_reclaimed=artifact_bytes_reclaimed,
            ttl_seconds=message.ttl_seconds,
            cache_dir=self.cache_dir,
            per_worker=per_worker,
        )
        return 200, report.to_wire()

    # ------------------------------------------------------------------
    # Stream fan-in
    # ------------------------------------------------------------------
    async def _stream_pump(self, handle: WorkerHandle) -> None:
        """Mirror one worker's event stream into the public subscribers.

        Reconnects with a short back-off whenever the worker connection
        drops (e.g. across a restart); job ids are rewritten to their
        namespaced ``<worker>-<id>`` form on the way through.
        """
        while True:
            try:
                ws = await wire.open_websocket(
                    "127.0.0.1", handle.port, "/v1/stream"
                )
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    wire.WireError):
                await asyncio.sleep(HEARTBEAT_INTERVAL)
                continue
            try:
                while True:
                    message = await ws.receive()
                    if message is None:
                        break
                    try:
                        envelope = json.loads(message)
                    except ValueError:
                        continue
                    envelope = self._prefix_job_ids(
                        envelope, handle.worker_id
                    )
                    self._broadcast(envelope)
                    await self._note_terminal(envelope)
            finally:
                await ws.close()
            await asyncio.sleep(HEARTBEAT_INTERVAL)

    async def _note_terminal(self, envelope: Dict[str, Any]) -> None:
        """Settle the journal entry behind a done/failed stream event."""
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return
        if payload.get("status") not in ("done", "failed"):
            return
        job_id = payload.get("job_id")
        if not isinstance(job_id, str) or self.journal is None:
            return
        await self._journal_call(
            self.journal.mark_terminal, job_id, payload.get("error_code")
        )

    def _broadcast(self, envelope: Dict[str, Any]) -> None:
        self._stream_seq += 1
        envelope = dict(envelope)
        envelope["seq"] = self._stream_seq
        self._stream_replay.append(envelope)
        for queue in list(self._subscribers):
            self._enqueue(queue, envelope)

    @staticmethod
    def _enqueue(queue: asyncio.Queue, envelope: Dict[str, Any]) -> None:
        """Drop-oldest enqueue shared by live fan-out and replay."""
        try:
            queue.put_nowait(envelope)
        except asyncio.QueueFull:
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - race
                pass
            try:
                queue.put_nowait(envelope)
            except asyncio.QueueFull:  # pragma: no cover - race
                pass

    async def _handle_stream(
        self,
        request: wire.HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(
                wire.json_response(
                    400,
                    ErrorEnvelope(
                        error_code="protocol-error",
                        message="missing Sec-WebSocket-Key",
                        http_status=400,
                    ).to_wire(),
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        cursor: Optional[int] = None
        if "since" in request.query:
            try:
                cursor = int(request.query["since"])
            except ValueError:
                writer.write(
                    wire.json_response(
                        400,
                        ErrorEnvelope(
                            error_code="protocol-error",
                            message="since must be an integer sequence number",
                            http_status=400,
                        ).to_wire(),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
        writer.write(
            wire.serialize_response(
                101,
                extra_headers={
                    "Upgrade": "websocket",
                    "Connection": "Upgrade",
                    "Sec-WebSocket-Accept": wire.websocket_accept(key),
                },
            )
        )
        await writer.drain()
        ws = wire.WebSocketConnection(reader, writer, client=False)
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIBER_QUEUE_SIZE)
        self._subscribers.add(queue)
        if cursor is not None:
            # Replay the retained tail before any live event: registration
            # and replay happen without an await in between, so no broadcast
            # can interleave and ordering by seq is preserved.
            for envelope in list(self._stream_replay):
                if envelope["seq"] > cursor:
                    self._enqueue(queue, envelope)
        receive_task = asyncio.ensure_future(ws.receive())
        event_task = asyncio.ensure_future(queue.get())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {receive_task, event_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if receive_task in done:
                    if receive_task.result() is None:
                        break
                    receive_task = asyncio.ensure_future(ws.receive())
                if event_task in done:
                    await ws.send_text(json.dumps(event_task.result()))
                    event_task = asyncio.ensure_future(queue.get())
        except (wire.WireError, ConnectionError, OSError):
            pass
        finally:
            self._subscribers.discard(queue)
            for task in (receive_task, event_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
            await ws.close()


async def run_supervisor(
    *, install_signal_handlers: bool = True, **kwargs: Any
) -> int:
    """Run a supervisor until SIGTERM/SIGINT, then drain.  CLI helper."""
    supervisor = Supervisor(**kwargs)
    await supervisor.start()
    print(
        json.dumps(
            {
                "event": "listening",
                "role": "supervisor",
                "host": supervisor.host,
                "port": supervisor.port,
                "workers": [
                    handle.describe() for handle in supervisor.workers
                ],
            }
        ),
        flush=True,
    )
    stop_requested = asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(signum, lambda *_: stop_requested.set())
    await stop_requested.wait()
    await supervisor.stop()
    return 0


__all__ = [
    "DRAIN_TIMEOUT",
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_MISS_LIMIT",
    "STARTUP_TIMEOUT",
    "Supervisor",
    "WorkerHandle",
    "run_supervisor",
]

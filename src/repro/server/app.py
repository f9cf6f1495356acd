"""The one HTTP/WebSocket front end, over a local service or a worker fleet.

:class:`JobServer` is the only HTTP router in the package: one asyncio
loop, one listening socket, one job backend.  It exposes the full job
lifecycle under the versioned ``/v1`` prefix:

=========  =======================  ==========================================
method     path                     meaning
=========  =======================  ==========================================
POST       /v1/jobs                 submit a circuit (SubmitRequest body)
GET        /v1/jobs/{id}            job status snapshot
DELETE     /v1/jobs/{id}            cancel a job (cooperative interrupt)
GET        /v1/jobs/{id}/result     full result (``?wait=SECONDS`` to block)
GET        /v1/stats                service + store counters and gauges
GET        /v1/healthz              liveness + the queue-depth routing gauges
POST       /v1/cache/prune          prune the result store / flush the LRU
GET        /v1/stream               WebSocket: job state transition events
=========  =======================  ==========================================

The backend is either a :class:`ServiceBackend` over an in-process
:class:`~repro.service.service.MappingService` (``repro-map listen
--workers 0``) or a :class:`~repro.server.supervisor.Supervisor` over worker
processes (``--workers N``).  Both answer the same calls — submit, status,
cancel, result, stats, health, prune and a queue of job transitions — so
the router never asks which one it has; the backends differ only in the
payloads they return (the fleet's stats carry a per-worker breakdown, its
prune report a per-worker one).

Every body in both directions is a :mod:`repro.server.protocol` envelope;
every failure is an :class:`~repro.server.protocol.ErrorEnvelope` whose
HTTP status comes from the service-error code table.  The stream stamps
every transition with a monotonically increasing ``seq`` and retains the
last :data:`STREAM_REPLAY_SIZE` envelopes, so a subscriber that reconnects
with ``?since=<seq>`` replays what it missed before live delivery resumes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Set, Tuple

from repro.circuit.qasm import parse_qasm
from repro.server import wire
from repro.server.protocol import (
    CancelRequest,
    ErrorEnvelope,
    HealthReport,
    JobStatus,
    ProtocolError,
    PruneReport,
    PruneRequest,
    ResultPayload,
    StatsReport,
    StreamEvent,
    SubmitRequest,
    from_wire,
)
from repro.service.errors import ServiceError
from repro.service.service import DONE, FAILED, MappingService
from repro.service.store import ResultStore, resolve_cache_dir

#: Longest a ``?wait=`` result long-poll may block (seconds).
MAX_RESULT_WAIT_SECONDS = 300.0
#: Capacity of each stream subscriber queue (drop-oldest beyond it).
SUBSCRIBER_QUEUE_SIZE = 1024
#: Recent stream envelopes retained for ``?since=<seq>`` catch-up replay.
STREAM_REPLAY_SIZE = 4096
#: The counters of a prune report (summed over workers by a fleet).
PRUNE_COUNTERS = ("rows_pruned", "bytes_reclaimed", "memory_dropped",
                  "artifact_rows_pruned", "artifact_bytes_reclaimed")


class ServiceBackend:
    """The job backend of one in-process :class:`MappingService`.

    Also what a fleet worker process drives from its stdin channel (see
    :mod:`repro.server.worker`).

    Args:
        service: The (not yet started) mapping service.
        worker_id: Name stamped into stats, health reports and events.
        cache_dir: The persistent cache directory backing the service's
            store, if any (reported by the prune endpoint).
    """

    role = "worker"

    def __init__(
        self,
        service: MappingService,
        *,
        worker_id: str = "w0",
        cache_dir: Optional[str] = None,
    ):
        self.service = service
        self.worker_id = worker_id
        self.cache_dir = cache_dir
        #: Every job transition of the service, in order.
        self.events: Optional[asyncio.Queue] = None

    @classmethod
    def build(
        cls,
        *,
        worker_id: str = "w0",
        arch: Optional[Sequence[str]] = None,
        engine: str = "dp",
        engine_options: Optional[Dict[str, Any]] = None,
        service_workers: int = 2,
        executor: str = "thread",
        cache_dir: Optional[str] = None,
        result_ttl: Optional[float] = None,
    ) -> "ServiceBackend":
        """Assemble (but do not start) a service from ``listen`` options.

        *cache_dir* defaults to ``$REPRO_CACHE_DIR``; without either the
        result store lives in memory.
        """
        from repro.arch import get_architecture

        cache_dir = resolve_cache_dir(cache_dir)
        couplings = {}
        for name in arch or ["ibm_qx4"]:
            coupling = get_architecture(name)
            couplings[coupling.name] = coupling
        store = (
            ResultStore.at(cache_dir, ttl_seconds=result_ttl)
            if cache_dir is not None
            else ResultStore(ttl_seconds=result_ttl)
        )
        service = MappingService(
            couplings,
            engine=engine,
            engine_options=engine_options,
            store=store,
            workers=service_workers,
            executor=executor,
        )
        return cls(service, worker_id=worker_id, cache_dir=cache_dir)

    async def open(self) -> None:
        await self.service.start()
        self.events = self.service.subscribe()

    async def close(self, drain: bool = True) -> None:
        await self.service.stop(drain=drain)

    def describe(self) -> Dict[str, Any]:
        return {"pid": os.getpid()}

    async def submit(
        self, message: SubmitRequest, body: bytes = b"",
        job_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        try:
            circuit = parse_qasm(
                message.qasm, name=message.circuit_name or "submitted_circuit"
            )
        except Exception as error:  # noqa: BLE001 - parser raises ValueError family
            raise ProtocolError(
                f"QASM body failed to parse: {error}",
                details={"error_type": type(error).__name__},
            ) from error
        job_id = await self.service.submit(
            circuit,
            arch=message.arch,
            engine=message.engine,
            options=dict(message.options) or None,
            job_id=job_id,
        )
        return self.service.status(job_id)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.service.status(job_id)

    async def cancel(
        self, job_id: str, reason: Optional[str] = None
    ) -> Dict[str, Any]:
        return self.service.cancel(job_id, reason=reason)

    async def result(
        self, job_id: str, wait: Optional[float] = None
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """The job's snapshot and, once it is done, its result dict."""
        if wait is not None:
            try:
                await self.service.result(job_id, timeout=wait)
            except asyncio.TimeoutError:
                pass  # still running: the snapshot says so
            except ServiceError:
                pass  # job failed; the snapshot carries the structured error
        snapshot = self.service.status(job_id)
        if snapshot["status"] != DONE:
            return snapshot, None
        return snapshot, (await self.service.result(job_id)).to_dict()

    async def stats(
        self, server: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        stats = self.service.stats()
        stats["server"] = {
            "worker_id": self.worker_id, "pid": os.getpid(), **server
        }
        return stats, {}

    def health(self) -> Dict[str, Any]:
        return {"ok": True, "worker_id": self.worker_id, **self.service.load()}

    async def prune(self, message: PruneRequest) -> Dict[str, Any]:
        store = self.service.store
        pruned = dict.fromkeys(PRUNE_COUNTERS, 0)
        if message.ttl_seconds is not None:
            pruned.update(await asyncio.get_running_loop().run_in_executor(
                None, store.prune_report, message.ttl_seconds
            ))
        if message.flush_memory:
            # Result LRU only — disk-backed artifact rows survive the
            # broadcast (they are skeleton-keyed facts, never stale the way
            # a fingerprinted result can be) and are TTL-pruned above.
            pruned["memory_dropped"] += store.drop_memory()
        return {key: pruned[key] for key in PRUNE_COUNTERS} | {
            "ttl_seconds": message.ttl_seconds, "cache_dir": self.cache_dir,
        }


class JobServer:
    """The HTTP/WebSocket front end over one job backend.

    Args:
        service: A (not yet started) mapping service to serve in-process;
            shorthand for ``backend=ServiceBackend(service, ...)``.
        backend: The job backend (a :class:`ServiceBackend` or a
            :class:`~repro.server.supervisor.Supervisor`).
        host/port: Bind address; port ``0`` picks a free port (read the
            resolved one from :attr:`port` after :meth:`start`).
        worker_id: Name of the in-process worker, stamped into its stats,
            health reports and stream events.
        cache_dir: The persistent cache directory backing the service's
            store, if any (reported by the prune endpoint).
    """

    def __init__(
        self,
        service: Optional[MappingService] = None,
        *,
        backend: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: str = "w0",
        cache_dir: Optional[str] = None,
    ):
        self.service = service
        self.backend = backend if backend is not None else ServiceBackend(
            service, worker_id=worker_id, cache_dir=cache_dir
        )
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.draining = False
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._requests_served = 0
        self._relay: Optional[asyncio.Task] = None
        self._subscribers: Set[asyncio.Queue] = set()
        self._stream_seq = 0
        self._stream_replay: Deque[Dict[str, Any]] = deque(
            maxlen=STREAM_REPLAY_SIZE
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "JobServer":
        """Open the backend, then bind the listening socket."""
        await self.backend.open()
        self._relay = asyncio.ensure_future(self._relay_events())
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=wire.MAX_HEADER_BYTES,
            reuse_address=True,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        return self

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, then drain the backend.

        Open keep-alive connections are closed after their in-progress
        request; the backend finishes in-flight solves and fails
        still-queued jobs with ``ServiceUnavailable`` (see
        :meth:`MappingService.stop`), and the transitions that produces
        still reach stream subscribers.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.backend.close(drain=drain)
        if self._relay is not None:
            self._relay.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._relay
            self._relay = None
            while not self.backend.events.empty():
                self._publish(self.backend.events.get_nowait())

    async def __aenter__(self) -> "JobServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    async def serve_until_signalled(self) -> int:
        """Start, print the readiness line, drain on SIGTERM/SIGINT.

        The one listen loop of ``repro-map listen``, whatever the backend.
        The readiness line on stdout reports the resolved port, e.g.::

            {"event": "listening", "role": "supervisor", "host": "127.0.0.1",
             "port": 8137, "workers": [{"worker_id": "w0", "pid": 4242, ...}]}
        """
        await self.start()
        print(
            json.dumps(
                {
                    "event": "listening",
                    "role": self.backend.role,
                    "host": self.host,
                    "port": self.port,
                    **self.backend.describe(),
                }
            ),
            flush=True,
        )
        stop_requested = asyncio.Event()
        on_signals(stop_requested.set)
        await stop_requested.wait()
        await self.stop(drain=True)
        return 0

    # ------------------------------------------------------------------
    # Connection handling
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
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one request; always returns a protocol envelope."""
        try:
            return await self._route(request)
        except ServiceError as error:
            envelope = ErrorEnvelope.from_error(error)
            return envelope.http_status, envelope.to_wire()
        except Exception as error:  # noqa: BLE001 - last-resort server error
            envelope = ErrorEnvelope(
                error_code="service-error",
                message=f"internal server error: {error}",
                details={"error_type": type(error).__name__},
            )
            return envelope.http_status, envelope.to_wire()

    async def _route(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        path, method = request.path, request.method
        if path == "/v1/jobs":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return await self._submit(request)
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/result"):
                job_id = tail[: -len("/result")]
                if method != "GET":
                    raise _method_not_allowed(method, path)
                return await self._result(job_id, request)
            if "/" not in tail:
                if method == "GET":
                    return self._status(tail)
                if method == "DELETE":
                    return await self._cancel(tail, request)
                raise _method_not_allowed(method, path)
        if path == "/v1/stats":
            if method != "GET":
                raise _method_not_allowed(method, path)
            return await self._stats()
        if path == "/v1/healthz":
            if method != "GET":
                raise _method_not_allowed(method, path)
            return self._healthz()
        if path == "/v1/cache/prune":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return await self._prune(request)
        if path == "/v1/stream":
            raise ProtocolError(
                "/v1/stream requires a WebSocket upgrade "
                "(Connection: Upgrade, Upgrade: websocket)"
            )
        not_found = ServiceError(f"no such endpoint: {method} {path}")
        not_found.code = "not-found"
        raise not_found

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------
    async def _submit(
        self, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        message = from_wire(request.json())
        if not isinstance(message, SubmitRequest):
            raise ProtocolError(
                f"POST /v1/jobs expects a submit-request, got {message.TYPE}"
            )
        snapshot = await self.backend.submit(message, request.body)
        return 202, JobStatus.from_snapshot(snapshot).to_wire()

    def _status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        snapshot = self.backend.status(job_id)
        return 200, JobStatus.from_snapshot(snapshot).to_wire()

    async def _cancel(
        self, job_id: str, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """``DELETE /v1/jobs/{id}``: cooperatively cancel one job.

        Returns the post-cancel snapshot (status 200) — cancelling an
        already-terminal job is a no-op, not an error, so retried DELETEs
        are safe.
        """
        reason = None
        body = request.json()
        if body:
            message = from_wire(body)
            if not isinstance(message, CancelRequest):
                raise ProtocolError(
                    "DELETE /v1/jobs/{id} expects a cancel-request body, "
                    f"got {message.TYPE}"
                )
            reason = message.reason
        snapshot = await self.backend.cancel(job_id, reason)
        return 200, JobStatus.from_snapshot(snapshot).to_wire()

    async def _result(
        self, job_id: str, request: wire.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        wait = None
        wait_raw = request.query.get("wait")
        if wait_raw is not None:
            try:
                wait = min(float(wait_raw), MAX_RESULT_WAIT_SECONDS)
            except ValueError:
                raise ProtocolError(
                    f"invalid wait parameter {wait_raw!r}"
                ) from None
        snapshot, result = await self.backend.result(job_id, wait)
        if snapshot["status"] == DONE:
            payload = ResultPayload(
                job_id=job_id,
                result=result,
                provenance=dict(snapshot.get("provenance", {})),
            )
            return 200, payload.to_wire()
        if snapshot["status"] == FAILED:
            envelope = ErrorEnvelope.from_error(
                as_service_error(snapshot.get("error") or {})
            )
            return envelope.http_status, envelope.to_wire()
        return 202, JobStatus.from_snapshot(snapshot).to_wire()

    async def _stats(self) -> Tuple[int, Dict[str, Any]]:
        stats, workers = await self.backend.stats(
            {
                "port": self.port,
                "requests_served": self._requests_served,
                "uptime_seconds": (
                    time.monotonic() - self.started_at
                    if self.started_at is not None
                    else 0.0
                ),
                "draining": self.draining,
            }
        )
        report = StatsReport(role=self.backend.role, stats=stats,
                             workers=workers)
        return 200, report.to_wire()

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        health = self.backend.health()
        health["ok"] = health["ok"] and not self.draining
        report = HealthReport(
            role=self.backend.role, pid=os.getpid(), draining=self.draining,
            **health,
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
        report = PruneReport(**await self.backend.prune(message))
        return 200, report.to_wire()

    # ------------------------------------------------------------------
    # WebSocket stream
    # ------------------------------------------------------------------
    async def _relay_events(self) -> None:
        while True:
            self._publish(await self.backend.events.get())

    def _publish(self, event: Dict[str, Any]) -> None:
        """Stamp one backend transition with the next ``seq`` and fan it out."""
        self._stream_seq += 1
        envelope = StreamEvent.from_service_event(
            dict(event, seq=self._stream_seq),
            worker=event.get("worker", self.worker_id),
        ).to_wire()
        envelope["seq"] = self._stream_seq
        self._stream_replay.append(envelope)
        for queue in list(self._subscribers):
            _enqueue(queue, envelope)

    async def _handle_stream(
        self,
        request: wire.HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        cursor: Optional[int] = None
        problem = None if key else "missing Sec-WebSocket-Key"
        if key and "since" in request.query:
            try:
                cursor = int(request.query["since"])
            except ValueError:
                problem = "since must be an integer sequence number"
        if problem is not None:
            envelope = ErrorEnvelope(
                error_code="protocol-error", message=problem, http_status=400
            )
            writer.write(
                wire.json_response(400, envelope.to_wire(), keep_alive=False)
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
        socket = wire.WebSocketConnection(reader, writer, client=False)
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIBER_QUEUE_SIZE)
        self._subscribers.add(queue)
        if cursor is not None:
            # Replay the retained tail before any live event: registration
            # and replay happen without an await in between, so no publish
            # can interleave and ordering by seq is preserved.
            for envelope in list(self._stream_replay):
                if envelope["seq"] > cursor:
                    _enqueue(queue, envelope)
        receive_task = asyncio.ensure_future(socket.receive())
        event_task = asyncio.ensure_future(queue.get())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {receive_task, event_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if receive_task in done:
                    # The only client messages we expect are pings (answered
                    # inside receive()) and close; anything else is ignored.
                    if receive_task.result() is None:
                        break
                    receive_task = asyncio.ensure_future(socket.receive())
                if event_task in done:
                    await socket.send_text(json.dumps(event_task.result()))
                    event_task = asyncio.ensure_future(queue.get())
        except (wire.WireError, ConnectionError, OSError):
            pass  # subscriber went away mid-send
        finally:
            self._subscribers.discard(queue)
            for task in (receive_task, event_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
            await socket.close()


def on_signals(callback: Callable[[], None]) -> None:
    """Call *callback* on SIGTERM or SIGINT (the drain trigger)."""
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, callback)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda *_: callback())


def as_service_error(error_dict: Dict[str, Any]) -> ServiceError:
    """Rebuild a structured error from its ``to_dict`` form."""
    rebuilt = ServiceError(
        error_dict.get("message", "job failed"),
        details=dict(error_dict.get("details", {})),
    )
    rebuilt.code = error_dict.get("code", "mapping-failed")
    return rebuilt


def _enqueue(queue: asyncio.Queue, envelope: Dict[str, Any]) -> None:
    """Drop-oldest enqueue shared by live fan-out and replay."""
    try:
        queue.put_nowait(envelope)
    except asyncio.QueueFull:
        with contextlib.suppress(asyncio.QueueEmpty):
            queue.get_nowait()
        with contextlib.suppress(asyncio.QueueFull):
            queue.put_nowait(envelope)


def _method_not_allowed(method: str, path: str) -> ServiceError:
    error = ServiceError(f"method {method} not allowed on {path}")
    error.code = "method-not-allowed"
    return error


__all__ = [
    "JobServer",
    "MAX_RESULT_WAIT_SECONDS",
    "STREAM_REPLAY_SIZE",
    "ServiceBackend",
    "as_service_error",
    "on_signals",
]

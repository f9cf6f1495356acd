"""Worker process: one :class:`MappingService` driven over its stdio pipes.

The supervisor spawns ``python -m repro.server.worker CONFIG`` per worker;
``CONFIG`` is a JSON object of :meth:`ServiceBackend.build` options.  A
worker binds no socket.  Its stdin carries JSON-line requests, each with an
``id`` (``submit`` under the public id the supervisor minted, ``cancel``,
``stats``, ``flush``).  Its stdout carries the readiness line, one reply
per request, every job transition with the job's snapshot (and result,
once done), and a load heartbeat every
:data:`~repro.server.supervisor.HEARTBEAT_INTERVAL` seconds.

The channel moves off fd 1 before the service starts and fd 1 then points
at stderr, so a stray ``print`` here or in a ``--executor process`` child
cannot corrupt it.  stdin EOF (the supervisor closed it, or died) or
SIGTERM drains: in-flight jobs finish, queued ones fail with
``service-unavailable``, those transitions are reported, and the process
exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence, Set

from repro.server.app import ServiceBackend, on_signals
from repro.server.protocol import ProtocolError, from_wire
from repro.server.supervisor import CHANNEL_LINE_LIMIT, HEARTBEAT_INTERVAL
from repro.service.errors import ServiceError


class WorkerChannel:
    """Serve one :class:`ServiceBackend` over stdin/stdout JSON lines."""

    def __init__(self, backend: ServiceBackend, channel):
        self.backend = backend
        self.channel = channel
        self.started_at = time.monotonic()
        self.requests_served = 0
        self.draining = False
        self._handlers: Set[asyncio.Task] = set()

    def send(self, message: Dict[str, Any]) -> None:
        if self.channel is None:
            return
        try:
            self.channel.write(json.dumps(message) + "\n")
            self.channel.flush()
        except (OSError, ValueError):
            self.channel = None  # the supervisor is gone; drain regardless

    async def run(self) -> None:
        reader = asyncio.StreamReader(limit=CHANNEL_LINE_LIMIT)
        await asyncio.get_running_loop().connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        stop = asyncio.Event()
        on_signals(stop.set)
        self.send({"op": "ready", "worker_id": self.backend.worker_id,
                   "pid": os.getpid()})
        reading = asyncio.ensure_future(self._read(reader, stop))
        # Heartbeats continue through the drain: a long last job is busy,
        # not hung.
        background = [
            asyncio.ensure_future(self._heartbeat()),
            asyncio.ensure_future(self._relay_events()),
        ]
        await stop.wait()
        self.draining = True
        reading.cancel()
        await asyncio.gather(reading, *self._handlers, return_exceptions=True)
        await self.backend.close(drain=True)
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        while not self.backend.events.empty():
            await self._relay(self.backend.events.get_nowait())
        if self.channel is not None:
            self.channel.close()

    async def _read(self, reader: asyncio.StreamReader,
                    stop: asyncio.Event) -> None:
        try:
            while line := await reader.readline():
                handler = asyncio.ensure_future(self._answer(json.loads(line)))
                self._handlers.add(handler)
                handler.add_done_callback(self._handlers.discard)
        finally:
            stop.set()

    async def _answer(self, request: Dict[str, Any]) -> None:
        self.requests_served += 1
        try:
            reply = {"ok": True, **await self._perform(request)}
        except Exception as error:  # noqa: BLE001 - reported, not fatal
            if not isinstance(error, ServiceError):
                error = ServiceError(f"internal worker error: {error}",
                                     {"error_type": type(error).__name__})
            reply = {"ok": False, "error": error.to_dict()}
        self.send({"id": request.get("id"), **reply})

    async def _perform(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op, backend = request.get("op"), self.backend
        if op == "submit":
            message = from_wire(request["submit"])
            await backend.submit(message, job_id=request["job_id"])
            return await self._report(request["job_id"])
        if op == "cancel":
            await backend.cancel(request["job_id"], request.get("reason"))
            return await self._report(request["job_id"])
        if op == "stats":
            stats, _ = await backend.stats({
                "port": None,
                "requests_served": self.requests_served,
                "uptime_seconds": time.monotonic() - self.started_at,
                "draining": self.draining,
            })
            return {"stats": stats}
        if op == "flush":
            return {"report": await backend.prune(from_wire(request["prune"]))}
        raise ProtocolError(f"unknown channel request {op!r}")

    async def _heartbeat(self) -> None:
        while True:
            self.send({"op": "load", **self.backend.service.load()})
            await asyncio.sleep(HEARTBEAT_INTERVAL)

    async def _relay_events(self) -> None:
        while True:
            await self._relay(await self.backend.events.get())

    async def _relay(self, event: Dict[str, Any]) -> None:
        self.send({"op": "job", "event": event,
                   **await self._report(event["job_id"])})

    async def _report(self, job_id: str) -> Dict[str, Any]:
        """The job's snapshot as of this line, with its result once done
        (so lines never show a job moving backwards)."""
        snapshot, result = await self.backend.result(job_id)
        return {"snapshot": snapshot, "result": result}


async def _amain(config: Dict[str, Any]) -> int:
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)  # stray prints now reach stderr, not the channel
    backend = ServiceBackend.build(**config)
    await backend.open()
    await WorkerChannel(backend, channel).run()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else list(argv)
    return asyncio.run(_amain(json.loads(arguments[0]) if arguments else {}))


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())

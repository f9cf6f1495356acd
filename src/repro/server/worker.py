"""Worker process entry point: one :class:`JobServer` per process.

The supervisor spawns ``python -m repro.server.worker --port N ...`` once
per worker.  Each worker owns a full :class:`MappingService` over its own
connection to the shared SQLite result store, binds a private loopback
port, and prints a single JSON readiness line on stdout once listening::

    {"event": "listening", "worker_id": "w0", "port": 41234, "pid": 12345}

Shutdown is graceful: SIGTERM (or SIGINT) closes the listening socket,
finishes in-flight jobs, fails still-queued jobs with a structured
``service-unavailable`` error and exits 0.  The module is also usable
stand-alone as a single-process server (that is exactly what
``repro-map listen --workers 0`` runs in-process).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict, Optional, Sequence

from repro.arch import get_architecture
from repro.server.app import JobServer
from repro.service.service import MappingService
from repro.service.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.worker",
        description="Run one mapping-service worker: an HTTP/WebSocket "
        "server over a MappingService (normally spawned by the supervisor).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to bind (0 picks a free one; the readiness line on "
        "stdout reports the resolved port)",
    )
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument(
        "--arch", action="append", default=None,
        help="architecture name; repeat to register several devices "
        "(default: ibm_qx4)",
    )
    parser.add_argument("--engine", default="dp")
    parser.add_argument(
        "--engine-options", default=None, metavar="JSON",
        help="engine constructor options as a JSON object",
    )
    parser.add_argument(
        "--service-workers", type=int, default=2,
        help="solver worker-pool size inside the mapping service",
    )
    parser.add_argument("--executor", default="thread",
                        choices=["thread", "process"])
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache directory holding the shared result store "
        "(defaults to $REPRO_CACHE_DIR; omit both for an in-memory store)",
    )
    parser.add_argument("--result-ttl", type=float, default=None)
    return parser


def build_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    worker_id: str = "w0",
    arch: Optional[Sequence[str]] = None,
    engine: str = "dp",
    engine_options: Optional[Dict[str, Any]] = None,
    service_workers: int = 2,
    executor: str = "thread",
    cache_dir: Optional[str] = None,
    result_ttl: Optional[float] = None,
) -> JobServer:
    """Assemble (but do not start) a worker's :class:`JobServer`.

    Shared between the subprocess entry point below and the in-process
    single-worker mode of ``repro-map listen --workers 0``.
    """
    from repro.arch.cache import get_cache_dir, set_cache_dir

    if cache_dir is not None:
        set_cache_dir(cache_dir)
    cache_dir = get_cache_dir()
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
    return JobServer(
        service, host=host, port=port, worker_id=worker_id, cache_dir=cache_dir
    )


async def _amain(args: argparse.Namespace) -> int:
    engine_options = (
        json.loads(args.engine_options) if args.engine_options else None
    )
    server = build_server(
        host=args.host,
        port=args.port,
        worker_id=args.worker_id,
        arch=args.arch,
        engine=args.engine,
        engine_options=engine_options,
        service_workers=args.service_workers,
        executor=args.executor,
        cache_dir=args.cache_dir,
        result_ttl=args.result_ttl,
    )
    await server.start()
    print(
        json.dumps(
            {
                "event": "listening",
                "worker_id": server.worker_id,
                "port": server.port,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )

    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda *_: stop_requested.set())
    await stop_requested.wait()
    await server.stop(drain=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())

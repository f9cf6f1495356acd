"""Network serving layer: HTTP/WebSocket front end over the mapping service.

The package turns the in-process :class:`~repro.service.service.MappingService`
into something that listens on a socket and scales past one process:

* :mod:`repro.server.protocol` — the versioned typed-message wire contract
  (one validated dataclass per message, a ``(type, version)`` registry,
  strict JSON conversions, and the service-error → HTTP status table).
* :mod:`repro.server.wire` — hand-rolled HTTP/1.1 request/response plumbing
  and RFC 6455 WebSocket framing over :mod:`asyncio` streams (stdlib only,
  both server and client side).
* :mod:`repro.server.app` — :class:`~repro.server.app.JobServer`, the one
  HTTP router, exposing the job lifecycle (``POST /v1/jobs``,
  ``GET /v1/jobs/{id}``, ``GET /v1/jobs/{id}/result``, ``GET /v1/stats``,
  ``GET /v1/healthz``, ``POST /v1/cache/prune``) plus a WebSocket
  ``/v1/stream`` pushing job state transitions, over a job backend: an
  in-process :class:`~repro.server.app.ServiceBackend` or a supervisor.
* :mod:`repro.server.supervisor` — the multi-process backend: spawns N
  workers over the shared SQLite result store, mints public job ids,
  routes by queue depth, keeps job status and results, restarts lost
  workers and redelivers their jobs, and broadcasts cache invalidations.
* :mod:`repro.server.worker` — the ``python -m repro.server.worker`` entry
  point a supervisor spawns: one mapping service driven by JSON lines on
  its stdin and reporting on its stdout (no socket; drains on stdin EOF).

Everything is importable lazily; importing :mod:`repro.server` does not pull
the asyncio server machinery into processes that only need the protocol.
"""

from repro.server.protocol import (
    PROTOCOL_VERSION,
    ErrorEnvelope,
    ProtocolError,
    from_wire,
    http_status_for_code,
    to_wire,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorEnvelope",
    "ProtocolError",
    "from_wire",
    "to_wire",
    "http_status_for_code",
]

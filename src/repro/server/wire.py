"""Hand-rolled HTTP/1.1 and WebSocket plumbing over asyncio streams.

The serving layer is stdlib-only by design, so this module implements the
small slice of HTTP/1.1 and RFC 6455 the job API needs, on both sides of
the wire:

* **Server side** — :func:`read_request` parses one request (request line,
  headers, ``Content-Length`` body) from a stream; :func:`serialize_response`
  renders one response.  Keep-alive is supported (the app loops over
  ``read_request`` per connection); chunked transfer encoding is not — the
  protocol layer's payloads are small JSON documents, and a client sending
  chunked bodies gets a clean 411.
* **Client side** — :func:`http_request` runs one request against a host
  and returns status, headers and body; :func:`open_websocket` opens a
  stream subscription.  The CLI's ``--url`` commands, the benchmarks and
  the tests talk to a server through them.
* **WebSocket** — :func:`websocket_accept` computes the handshake key;
  :class:`WebSocketConnection` frames/deframes text messages, answers pings
  transparently, unmasks client frames (and masks its own when acting as a
  client), reassembles fragmented messages and turns close frames into a
  ``None`` from :meth:`~WebSocketConnection.receive`.

Size limits are deliberately conservative: header blocks over 64 KiB and
bodies over ``MAX_BODY_BYTES`` are rejected before they are buffered, so a
misbehaving peer cannot balloon a worker's memory.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import random
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import unquote, urlsplit

from repro import faults
from repro.server.protocol import ProtocolError

#: Upper bound on one request's header block.
MAX_HEADER_BYTES = 64 * 1024

#: Base of the jittered exponential backoff between client retries.
RETRY_BACKOFF_BASE_SECONDS = 0.1

#: Upper bound on any single retry pause.
RETRY_BACKOFF_CAP_SECONDS = 2.0

#: Upper bound on one request/response body (QASM sources are small).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: RFC 6455 handshake GUID.
WEBSOCKET_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes this layer handles.
OP_CONT, OP_TEXT, OP_BINARY, OP_CLOSE, OP_PING, OP_PONG = (
    0x0, 0x1, 0x2, 0x8, 0x9, 0xA,
)

_REASONS = {
    101: "Switching Protocols", 200: "OK", 202: "Accepted",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 411: "Length Required",
    413: "Payload Too Large", 499: "Client Closed Request",
    500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable", 504: "Gateway Timeout",
}


class WireError(Exception):
    """A peer violated the HTTP/WebSocket framing (not the message contract).

    Carries the HTTP status the server side should answer with before
    closing the connection.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class RetryableWireError(WireError):
    """A transport-level failure that a fresh attempt may well fix.

    Raised by the client helpers when the TCP layer fails (connection
    refused/reset, stream truncated) — conditions a fleet produces
    routinely during worker restarts.  Callers distinguish "retry this"
    (here) from "the peer is speaking garbage" (plain :class:`WireError`)
    by type, not by parsing messages.
    """

    retryable = True

    def __init__(self, message: str, status: int = 503):
        super().__init__(message, status=status)


def _retryable(error: BaseException) -> bool:
    """Whether a client-side attempt failure is worth retrying."""
    if isinstance(error, (ConnectionError, asyncio.IncompleteReadError)):
        return True
    if isinstance(error, WireError):
        # 502-family wire errors are truncated/refused upstream streams;
        # anything else (malformed peer output) will not improve on retry.
        return error.status in (502, 503)
    return isinstance(error, OSError)


async def _backoff(attempt: int) -> None:
    """Sleep the jittered exponential backoff for retry number *attempt*."""
    pause = min(
        RETRY_BACKOFF_CAP_SECONDS,
        RETRY_BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)),
    )
    await asyncio.sleep(pause * (0.5 + random.random() / 2.0))


@dataclass
class HTTPRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return "close" not in connection

    @property
    def is_websocket_upgrade(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )

    def json(self) -> Any:
        """The body parsed as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(f"body is not valid JSON: {error}") from error


def _parse_query(raw: str) -> Dict[str, str]:
    query: Dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        query[unquote(key)] = unquote(value)
    return query


def _parse_headers(lines) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise WireError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_header_block(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read exactly through the blank line; ``None`` on EOF before any byte.

    ``readuntil`` consumes nothing past the separator, which matters for
    WebSocket upgrades: frames the peer sends immediately after its
    handshake stay in the stream buffer.
    """
    try:
        return await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireError("connection closed mid-headers") from error
    except asyncio.LimitOverrunError as error:
        raise WireError("header block too large", status=413) from error


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> Optional[HTTPRequest]:
    """Parse one request from *reader*; ``None`` on clean end of stream.

    Raises:
        WireError: Malformed framing, oversized payloads, or unsupported
            transfer encodings (the carried status says how to answer).
    """
    block = await _read_header_block(reader)
    if block is None:
        return None
    head = block[:-4]
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as error:
        raise WireError(f"malformed request line: {error}") from error
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise WireError(f"unsupported HTTP version {version!r}")
    headers = _parse_headers(lines[1:])
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise WireError("chunked request bodies are not supported", status=411)
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise WireError(f"invalid Content-Length {length_header!r}") from None
    if length < 0 or length > max_body:
        raise WireError("request body too large", status=413)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise WireError("connection closed mid-body") from error
    parts = urlsplit(target)
    return HTTPRequest(
        method=method.upper(),
        target=target,
        path=parts.path,
        query=_parse_query(parts.query),
        headers=headers,
        body=body,
        version=version,
    )


def serialize_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Render one HTTP/1.1 response (always with ``Content-Length``)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if body:
        lines.append(f"Content-Type: {content_type}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int, envelope: Dict[str, Any], *, keep_alive: bool = True
) -> bytes:
    """Render a JSON envelope as a complete response."""
    return serialize_response(
        status,
        json.dumps(envelope, sort_keys=True).encode("utf-8"),
        keep_alive=keep_alive,
    )


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
async def _read_response(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> Tuple[int, Dict[str, str], bytes]:
    block = await _read_header_block(reader)
    if block is None:
        raise WireError("connection closed before any response", status=502)
    lines = block[:-4].decode("latin-1").split("\r\n")
    try:
        _, status_text, _ = lines[0].split(" ", 2)
        status = int(status_text)
    except ValueError as error:
        raise WireError(f"malformed status line {lines[0]!r}") from error
    headers = _parse_headers(lines[1:])
    length = int(headers.get("content-length", "0") or "0")
    if length > max_body:
        raise WireError("response body too large", status=502)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise WireError("connection closed mid-response", status=502) from error
    return status, headers, body


async def http_request(
    host: str,
    port: int,
    method: str,
    target: str,
    *,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
    retries: int = 0,
) -> Tuple[int, Dict[str, str], bytes]:
    """Run one HTTP/1.1 request; returns ``(status, headers, body)``.

    One connection per request (``Connection: close``) — error handling
    stays simple, and the callers are tools, not hot paths.

    Transport failures (refused/reset connections, truncated streams) are
    raised as :class:`RetryableWireError` so callers see a structured,
    explicitly-retryable condition instead of a raw :class:`ConnectionError`.
    With ``retries > 0`` the helper performs that many additional attempts
    itself, spaced by jittered exponential backoff, before giving up.
    """

    async def _run() -> Tuple[int, Dict[str, str], bytes]:
        if faults.ARMED:
            mode = faults.fire("wire.write")
            if mode == "drop":
                raise RetryableWireError("injected fault dropped the request")
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = body or b""
            lines = [
                f"{method} {target} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(payload)}",
                "Connection: close",
            ]
            if payload:
                lines.append("Content-Type: application/json")
            for name, value in (headers or {}).items():
                lines.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload
            )
            await writer.drain()
            status, response_headers, response_body = await _read_response(reader)
            if faults.ARMED:
                mode = faults.fire("wire.read")
                if mode == "drop":
                    raise RetryableWireError("injected fault dropped the response")
                if mode == "corrupt":
                    response_body = faults.mangle("wire.read", response_body)
            return status, response_headers, response_body
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    attempt = 0
    while True:
        try:
            return await asyncio.wait_for(_run(), timeout)
        except RetryableWireError as error:
            last_error: BaseException = error
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as error:
            last_error = error
        except WireError as error:
            if not _retryable(error):
                raise
            last_error = error
        if attempt >= retries:
            if isinstance(last_error, RetryableWireError):
                raise last_error
            raise RetryableWireError(
                f"request to {host}:{port} failed: {last_error}"
            ) from last_error
        attempt += 1
        await _backoff(attempt)


# ----------------------------------------------------------------------
# WebSocket
# ----------------------------------------------------------------------
def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a handshake *key*."""
    digest = hashlib.sha1((key + WEBSOCKET_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


class WebSocketConnection:
    """Framing layer over an established (upgraded) stream pair.

    Args:
        reader/writer: The upgraded connection.
        client: Whether this side is the client — clients mask outgoing
            frames and expect unmasked incoming ones; servers the reverse.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        client: bool,
    ):
        self.reader = reader
        self.writer = writer
        self.client = client
        self.closed = False

    # -- sending -------------------------------------------------------
    def _frame(self, opcode: int, payload: bytes) -> bytes:
        header = bytes([0x80 | opcode])
        mask_bit = 0x80 if self.client else 0x00
        length = len(payload)
        if length < 126:
            header += bytes([mask_bit | length])
        elif length < 1 << 16:
            header += bytes([mask_bit | 126]) + struct.pack(">H", length)
        else:
            header += bytes([mask_bit | 127]) + struct.pack(">Q", length)
        if self.client:
            mask = os.urandom(4)
            masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
            return header + mask + masked
        return header + payload

    async def _send(self, opcode: int, payload: bytes) -> None:
        if self.closed:
            raise WireError("websocket already closed")
        self.writer.write(self._frame(opcode, payload))
        await self.writer.drain()

    async def send_text(self, text: str) -> None:
        """Send one unfragmented text frame.

        Under an armed ``wire.write`` fault in ``drop`` mode the frame is
        silently discarded — the lost-event case stream consumers must
        recover from via the ``?since`` replay cursor.
        """
        payload = text.encode("utf-8")
        if faults.ARMED:
            mode = faults.fire("wire.write")
            if mode == "drop":
                return
            if mode == "corrupt":
                payload = faults.mangle("wire.write", payload)
        await self._send(OP_TEXT, payload)

    async def send_ping(self, payload: bytes = b"") -> None:
        await self._send(OP_PING, payload)

    # -- receiving -----------------------------------------------------
    async def _read_exact(self, count: int) -> bytes:
        if count == 0:
            return b""
        try:
            return await self.reader.readexactly(count)
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            raise WireError(f"websocket stream ended mid-frame: {error}") from error

    async def _read_frame(self) -> Tuple[bool, int, bytes]:
        first, second = await self._read_exact(2)
        fin = bool(first & 0x80)
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        length = second & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", await self._read_exact(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await self._read_exact(8))
        if length > MAX_BODY_BYTES:
            raise WireError("websocket frame too large", status=413)
        mask = await self._read_exact(4) if masked else b""
        payload = await self._read_exact(length)
        if masked:
            payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        return fin, opcode, payload

    async def receive(self) -> Optional[str]:
        """The next text message, or ``None`` once the peer closed.

        Pings are answered and skipped; fragmented text messages are
        reassembled; EOF and close frames both end the stream cleanly.
        """
        buffer = b""
        fragmented = False
        while True:
            try:
                fin, opcode, payload = await self._read_frame()
            except WireError:
                self.closed = True
                return None
            if opcode == OP_PING:
                try:
                    await self._send(OP_PONG, payload)
                except (WireError, ConnectionError):  # pragma: no cover
                    return None
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                if not self.closed:
                    self.closed = True
                    try:
                        self.writer.write(self._frame(OP_CLOSE, payload[:2]))
                        await self.writer.drain()
                    except (ConnectionError, OSError):  # pragma: no cover
                        pass
                return None
            if opcode in (OP_TEXT, OP_BINARY):
                if fragmented:
                    raise WireError("interleaved websocket fragments")
                if faults.ARMED:
                    try:
                        mode = faults.fire("wire.read")
                    except faults.FaultInjectedError:
                        # Model a torn connection: consumers see the same
                        # clean end-of-stream a real reset produces.
                        self.closed = True
                        return None
                    if mode == "drop":
                        continue  # injected receive-side frame loss
                buffer = payload
                if fin:
                    return buffer.decode("utf-8", errors="replace")
                fragmented = True
                continue
            if opcode == OP_CONT:
                if not fragmented:
                    raise WireError("continuation frame without a start")
                buffer += payload
                if fin:
                    return buffer.decode("utf-8", errors="replace")
                continue
            raise WireError(f"unsupported websocket opcode {opcode:#x}")

    async def close(self, code: int = 1000) -> None:
        """Send a close frame (best effort) and close the transport."""
        if not self.closed:
            self.closed = True
            try:
                self.writer.write(self._frame(OP_CLOSE, struct.pack(">H", code)))
                await self.writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


async def open_websocket(
    host: str, port: int, path: str, *, timeout: float = 10.0, retries: int = 0
) -> WebSocketConnection:
    """Open a client WebSocket to ``ws://host:port{path}``.

    Performs the HTTP upgrade handshake (including the accept-key check)
    and returns the framed connection.  Transport failures surface as
    :class:`RetryableWireError`; with ``retries > 0`` the helper re-attempts
    the handshake that many times with jittered backoff first — stream
    consumers that track a ``?since`` cursor lose nothing across the gap.
    """

    async def _run() -> WebSocketConnection:
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        )
        writer.write(request.encode("latin-1"))
        await writer.drain()
        # readuntil consumes exactly through the blank line, so bytes of
        # the first frames the server sends right away stay in the buffer.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as error:
            writer.close()
            raise WireError(f"websocket handshake failed: {error}", status=502)
        lines = head.decode("latin-1").split("\r\n")
        try:
            _, status_text, _ = lines[0].split(" ", 2)
            status = int(status_text)
        except ValueError as error:
            writer.close()
            raise WireError(f"malformed status line {lines[0]!r}") from error
        headers = _parse_headers(line for line in lines[1:] if line)
        if status != 101:
            writer.close()
            raise WireError(
                f"websocket upgrade refused with status {status}", status=502
            )
        expected = websocket_accept(key)
        if headers.get("sec-websocket-accept") != expected:
            writer.close()
            raise WireError("websocket accept key mismatch", status=502)
        return WebSocketConnection(reader, writer, client=True)

    attempt = 0
    while True:
        try:
            return await asyncio.wait_for(_run(), timeout)
        except (
            RetryableWireError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ) as error:
            last_error: BaseException = error
        except WireError as error:
            if not _retryable(error):
                raise
            last_error = error
        if attempt >= retries:
            if isinstance(last_error, RetryableWireError):
                raise last_error
            raise RetryableWireError(
                f"websocket to {host}:{port}{path} failed: {last_error}"
            ) from last_error
        attempt += 1
        await _backoff(attempt)


__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "RETRY_BACKOFF_BASE_SECONDS",
    "RETRY_BACKOFF_CAP_SECONDS",
    "WEBSOCKET_GUID",
    "WireError",
    "RetryableWireError",
    "HTTPRequest",
    "read_request",
    "serialize_response",
    "json_response",
    "http_request",
    "websocket_accept",
    "WebSocketConnection",
    "open_websocket",
]

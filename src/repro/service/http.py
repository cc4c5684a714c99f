"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The service speaks just enough HTTP for a JSON API: request line,
headers, ``Content-Length`` bodies, keep-alive by default, and JSON
responses.  No chunked encoding, no TLS, no multipart — callers needing
those should front the service with a real proxy; the point here is a
dependency-free protocol layer the test suite and the benchmark load
generator can drive at full speed over localhost.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: Framing limits: a request line/header block beyond this is a 431, a
#: declared body beyond this is a 413 (the JSON API needs neither).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP framing; carries the status to respond with."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)   # lower-cased names
    body: bytes = b""

    @property
    def keep_alive(self):
        return self.headers.get("connection", "keep-alive") != "close"

    def json(self):
        """The body decoded as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, "request body is not valid JSON: %s"
                                % exc)
        except RecursionError:
            raise ProtocolError(400, "request body nests too deeply")


async def read_request(reader):
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on malformed framing so the caller
    can answer with the right status before closing.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(431, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(431, "request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise ProtocolError(400, "undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, "malformed request line %r" % lines[0])
    method, target = parts[0].upper(), parts[1]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, "malformed header line %r" % line)
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 6.3: conflicting lengths leave the framing unknown.
            raise ProtocolError(400, "conflicting Content-Length headers")
        headers[name] = value
    # The API ignores query strings; strip them so routing sees the path.
    path = target.split("?", 1)[0]
    if "transfer-encoding" in headers:
        raise ProtocolError(400, "Transfer-Encoding request bodies are "
                                 "unsupported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        # ASCII digits only (RFC 9110 8.6): int() would also take a
        # sign, underscores, spaces and non-ASCII digits.
        if not (length.isascii() and length.isdigit()):
            raise ProtocolError(400, "malformed Content-Length")
        # Too many digits for any allowed body: int() refuses strings
        # past 4300 digits.
        length = int(length) if len(length) < 20 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError(400, "connection closed mid-body")
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def encode_response(status, payload, extra_headers=None, keep_alive=True):
    """Serialize one JSON response (payload is a JSON-able object)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    lines = [
        "HTTP/1.1 %d %s" % (status, STATUS_TEXT.get(status, "Unknown")),
        "Content-Type: application/json",
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    for name, value in (extra_headers or {}).items():
        lines.append("%s: %s" % (name, value))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def write_response(writer, status, payload, extra_headers=None,
                         keep_alive=True):
    writer.write(encode_response(status, payload, extra_headers,
                                 keep_alive))
    await writer.drain()

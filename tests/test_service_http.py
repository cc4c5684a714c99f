"""Raw-socket fuzzing of the HTTP/1.1 framing (repro.service.http):
every malformed request answers its 4xx (never a 500), and ``/healthz``
keeps answering, also while another connection holds a partial head."""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service.http import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def service(paper_session):
    config = ServiceConfig(port=0, executor="thread", workers=1)
    with ServerThread(config, session=paper_session) as running:
        yield running


def exchange(port, raw):
    """Send ``raw``, half-close, and read until the server closes;
    returns ``(status, error message)`` of the first response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).decode("latin-1").partition("\r\n\r\n")
    assert head.startswith("HTTP/1.1 "), head[:200]
    return int(head.split(" ")[1]), json.loads(body).get("error")


def post(path, body, length=None, extra=b""):
    """A POST with ``body`` and its (or the given) Content-Length."""
    length = len(body) if length is None else length
    return (b"POST " + path + b" HTTP/1.1\r\nHost: x\r\n" + extra
            + b"Content-Length: " + str(length).encode() + b"\r\n\r\n"
            + body)


def head_of(size):
    """A GET whose head is ``size`` bytes long (one padding header)."""
    start = b"GET /healthz HTTP/1.1\r\nX-Pad: "
    return start + b"a" * (size - len(start) - 4) + b"\r\n\r\n"


def with_length(value, body=b""):
    """A GET /healthz (which ignores its body): framing alone decides
    whether it answers 200."""
    return (b"GET /healthz HTTP/1.1\r\nContent-Length: " + value
            + b"\r\n\r\n" + body)


CASES = {
    # request line
    "garbage-request-line": (b"GARBAGE\r\n\r\n", 400),
    "two-part-request-line": (b"GET /healthz\r\n\r\n", 400),
    "not-http": (b"GET /healthz SPDY/3\r\n\r\n", 400),
    "empty-method": (b" /healthz HTTP/1.1\r\n\r\n", 405),
    # header block
    "header-without-colon": (
        b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
    "head-20KB": (head_of(20 * 1024), 431),
    "head-60KB": (head_of(60 * 1024), 431),
    "head-over-64KB": (head_of(70 * 1024), 431),
    # Content-Length
    "length-not-digits": (with_length(b"abc"), 400),
    "length-plus-sign": (with_length(b"+2", b"{}"), 400),
    "length-underscore": (with_length(b"1_0", b"{}" * 5), 400),
    "length-negative": (with_length(b"-1"), 400),
    "length-non-ascii-digit": (with_length(b"\xb2", b"{}"), 400),
    "length-list": (with_length(b"2, 2", b"{}"), 400),
    "length-over-cap": (with_length(str(MAX_BODY_BYTES + 1).encode()),
                        413),
    "length-huge": (with_length(b"9" * 30), 413),
    "length-5000-digits": (with_length(b"9" * 5000), 413),
    "length-conflicting": (
        b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n"
        b"Content-Length: 3\r\n\r\n{} ", 400),
    # bodies
    "chunked": (b"POST /v1/optimize HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                400),
    "chunked-with-length": (
        post(b"/v1/optimize", b"2\r\n{}\r\n0\r\n\r\n",
             extra=b"Transfer-Encoding: chunked\r\n"), 400),
    "body-short-then-eof": (
        post(b"/v1/optimize", b'{"capacity_bytes": 1', length=100), 400),
    "head-partial-then-eof": (
        b"POST /v1/optimize HTTP/1.1\r\nContent-Le", 400),
    "body-not-json": (post(b"/v1/optimize", b"not json!"), 400),
    "body-not-an-object": (post(b"/v1/optimize", b"[1, 2]"), 400),
    "body-deeply-nested": (
        post(b"/v1/optimize", b"[" * 100_000 + b"]" * 100_000), 400),
    "body-invalid-utf8": (post(b"/v1/evaluate", b'{"flavor": "\xff"}'),
                          400),
    "body-nested-in-a-field": (
        post(b"/v1/montecarlo", b'{"n": ' + b"[" * 50_000 + b"]" * 50_000
             + b"}"), 400),
}


@pytest.mark.parametrize("raw, status", list(CASES.values()),
                         ids=list(CASES))
def test_malformed_request_gets_its_4xx(service, raw, status):
    answered, error = exchange(service.port, raw)
    assert answered == status, error
    assert error
    with ServiceClient(port=service.port) as client:
        assert client.healthz()["status"] == "ok"


def test_identical_repeated_length_is_accepted(service):
    """RFC 9110 lets a recipient accept a repeated identical length."""
    raw = (b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n"
           b"Content-Length: 2\r\n\r\n{}")
    assert exchange(service.port, raw) == (200, None)


def test_healthz_answers_while_a_partial_head_is_held_open(service):
    with socket.create_connection(("127.0.0.1", service.port),
                                  timeout=30) as held:
        held.sendall(b"POST /v1/optimize HTTP/1.1\r\nContent-Len")
        with ServiceClient(port=service.port) as client:
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
        held.sendall(b"gth: 2\r\n\r\n{}")
        held.shutdown(socket.SHUT_WR)
        response = held.recv(65536).decode("latin-1")
    # The completed request is answered on its own merits.
    assert response.startswith("HTTP/1.1 400 ")
    assert "capacity_bytes" in response

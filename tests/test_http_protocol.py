"""The server's HTTP/1.x request reader and response writer, over raw sockets.

What the reader accepts (HTTP/1.0 and 1.1, ``Content-Length`` bodies),
what it rejects (each with a JSON error, a status line and a closed
connection), its limits, connection reuse and ``Expect: 100-continue``.
A Hypothesis fuzz mutates valid request heads: every connection must
end, within a time bound, in well-formed responses that are not 500s or
in a close, and the server must still answer afterwards.
"""

import contextlib
import json
import re
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ServiceClient, build_server
from repro.service import server as server_mod
from repro.service.server import _Handler, _ResultText
from repro.service.store import ResultStore

JOB = json.dumps({"circuit": "KSA4", "num_planes": 2}).encode()
PROTOCOL_ERRORS = {
    400: "bad-request", 411: "length-required", 414: "uri-too-long",
    431: "header-fields-too-large", 501: "not-implemented",
    505: "http-version-not-supported",
}


@contextlib.contextmanager
def running_server(tmp_path, **opts):
    opts.setdefault("workers", 1)
    opts.setdefault("queue_size", 4)
    opts.setdefault("retries", 0)
    opts.setdefault("backoff", 0.0)
    opts.setdefault("store", ResultStore(root=str(tmp_path), enabled=True))
    server = build_server(host="127.0.0.1", port=0, **opts)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url, timeout=30.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def connect(server, timeout=10.0):
    return socket.create_connection(server.server_address[:2], timeout=timeout)


def read_to_close(sock):
    """Every byte until the server closes.

    A server that closes with request bytes still unread makes the
    kernel send a reset after the response; that ends the stream too.
    """
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def exchange(server, raw):
    """Send ``raw``; every byte the server sends until it closes."""
    with connect(server) as sock:
        sock.sendall(raw)
        return read_to_close(sock)


_STATUS_LINE = re.compile(rb"HTTP/1\.1 ([0-9]{3}) [^\r\n]*\r\n")


def parse_responses(stream):
    """``[(status, headers, body)]`` of a byte stream of whole responses.

    Fails unless the stream is a sequence of well-formed responses,
    interim ``100 Continue`` ones included, that ends exactly at the end
    of the last one.
    """
    responses = []
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {stream[:200]!r}"
        head += b"\r\n"
        match = _STATUS_LINE.match(head)
        assert match, f"bad status line {head[:100]!r}"
        headers = {}
        for line in head[match.end():].split(b"\r\n")[:-1]:
            name, colon, value = line.partition(b": ")
            assert colon, f"bad header line {line!r}"
            headers[name.decode().lower()] = value.decode("latin-1")
        status = int(match.group(1))
        if status == 100:
            stream = rest
            continue
        length = int(headers["content-length"])
        assert len(rest) >= length, "response body cut short"
        responses.append((status, headers, rest[:length]))
        stream = rest[length:]
    return responses


def one_response(stream):
    (response,) = parse_responses(stream)
    return response


def assert_protocol_error(stream, status):
    got, headers, body = one_response(stream)
    assert got == status
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    payload = json.loads(body)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == PROTOCOL_ERRORS[status]
    return payload["message"]


def request(method, target, headers=(), body=b"", version="HTTP/1.1"):
    lines = [f"{method} {target} {version}", "Host: test", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


# -- Expect: 100-continue --------------------------------------------------
def test_expect_continue_gets_an_interim_response_before_the_body(tmp_path):
    with running_server(tmp_path) as (server, client):
        head = request("POST", "/v1/jobs", ["Expect: 100-continue",
                                            f"Content-Length: {len(JOB)}",
                                            "Connection: close"])
        with connect(server, timeout=3.0) as sock:
            # The client holds its body until the interim answer comes.
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(65536)
                assert chunk, "closed before 100 Continue"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(JOB)
            status, _headers, body = one_response(read_to_close(sock))
        assert status == 202 and json.loads(body)["outcome"] == "queued"
        assert len(client.jobs()) == 1


def test_no_interim_response_when_the_body_is_refused(tmp_path):
    with running_server(tmp_path) as (server, _client):
        raw = request("POST", "/nowhere", ["Expect: 100-continue",
                                           "Content-Length: 10"])
        status, headers, _body = one_response(exchange(server, raw))
    assert status == 404
    # The body was never read, so the connection cannot go on.
    assert headers["connection"] == "close"


# -- message framing -------------------------------------------------------
def test_chunked_body_is_a_411_with_no_second_response(tmp_path):
    with running_server(tmp_path) as (server, client):
        raw = (b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x\r\n" % len(JOB) + JOB + b"\r\n0\r\n\r\n")
        message = assert_protocol_error(exchange(server, raw), 411)
        assert "Content-Length" in message
        assert client.jobs() == []


def test_conflicting_content_lengths_are_a_400(tmp_path):
    with running_server(tmp_path) as (server, client):
        raw = request("POST", "/v1/jobs", ["Content-Length: 5",
                                           f"Content-Length: {len(JOB)}"]) + JOB
        message = assert_protocol_error(exchange(server, raw), 400)
        assert "Content-Length" in message
        assert client.jobs() == []


def test_repeated_equal_content_lengths_are_one(tmp_path):
    with running_server(tmp_path) as (server, _client):
        raw = request("POST", "/v1/jobs", [f"Content-Length: {len(JOB)}",
                                           "Connection: close"], body=JOB)
        status, _headers, body = one_response(exchange(server, raw))
    assert status == 202 and json.loads(body)["outcome"] == "queued"


@pytest.mark.parametrize("line", [
    "Host x",             # no colon
    "X-Thing : 1",        # whitespace before the colon
    " folded",            # obs-fold continuation line
    "X-Thing: a\x00b",    # control character in a value
    ": empty-name",
], ids=["no-colon", "space-before-colon", "obs-fold", "nul", "empty-name"])
def test_malformed_header_lines_are_a_400(tmp_path, line):
    with running_server(tmp_path) as (server, _client):
        raw = request("GET", "/healthz", ["Accept: */*", line])
        assert "header line" in assert_protocol_error(exchange(server, raw), 400)


# -- protocol errors -------------------------------------------------------
@pytest.mark.parametrize("raw,status", [
    (b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 505),
    (b"GET /healthz HTTP/2.0\r\nHost: test\r\n\r\n", 505),
    (b"GET /healthz HTTP/0.9\r\nHost: test\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.10\r\nHost: test\r\n\r\n", 400),
    (b"GET  /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1 \r\nHost: test\r\n\r\n", 400),
    (b"GET /he\tlthz HTTP/1.1\r\nHost: test\r\n\r\n", 400),
    (b"get /healthz http/1.1\r\nHost: test\r\n\r\n", 400),
    (b"\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03\r\n\r\n", 400),
    (b"DELETE /v1/jobs HTTP/1.1\r\nHost: test\r\n\r\n", 501),
    (b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 501),
], ids=["h2-preface", "http2", "http0.9-versioned", "two-digit-minor",
        "double-space", "trailing-space", "tab-in-target", "lowercase",
        "tls-hello", "delete", "head"])
def test_protocol_errors_are_json_and_close(tmp_path, raw, status):
    with running_server(tmp_path) as (server, client):
        assert_protocol_error(exchange(server, raw), status)
        assert client.health()["status"] == "ok"


def test_versionless_request_is_answered_at_once(tmp_path, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 5.0)
    with running_server(tmp_path) as (server, _client):
        started = time.monotonic()
        with connect(server) as sock:
            # The client keeps its end open, as an HTTP/0.9 client would.
            sock.sendall(b"GET /healthz\r\n")
            response = read_to_close(sock)
        assert time.monotonic() - started < 2.0
    assert "METHOD SP target SP HTTP/1.x" in assert_protocol_error(response, 400)


def test_protocol_errors_are_counted(tmp_path):
    with running_server(tmp_path) as (server, client):
        exchange(server, b"PRI * HTTP/2.0\r\n\r\n")
        counters = client.metrics()["metrics"]
    assert counters["service.http.status.505"]["value"] == 1


# -- limits ----------------------------------------------------------------
def test_101_header_lines_are_a_431(tmp_path):
    with running_server(tmp_path) as (server, client):
        many = [f"X-H{i}: {i}" for i in range(101)]
        message = assert_protocol_error(
            exchange(server, request("GET", "/healthz", many)), 431
        )
        assert "header" in message
        # 99 fields (Host and Connection included): the most allowed.
        few = [f"X-H{i}: {i}" for i in range(97)] + ["Connection: close"]
        status, _headers, _body = one_response(
            exchange(server, request("GET", "/healthz", few))
        )
        assert status == 200
        assert client.health()["status"] == "ok"


def test_65k_request_line_is_a_414(tmp_path):
    with running_server(tmp_path) as (server, _client):
        raw = request("GET", "/" + "a" * 65 * 1024)
        assert_protocol_error(exchange(server, raw), 414)


def test_65k_header_line_is_a_431(tmp_path):
    with running_server(tmp_path) as (server, _client):
        raw = request("GET", "/healthz", ["X-Big: " + "b" * 65 * 1024])
        assert_protocol_error(exchange(server, raw), 431)


@pytest.mark.parametrize("length", [str(10 ** 12), "9" * 5000],
                         ids=["1e12", "5000-digits"])
def test_oversized_content_length_is_refused_unread(tmp_path, length):
    with running_server(tmp_path) as (server, _client):
        raw = request("POST", "/v1/jobs", [f"Content-Length: {length}"])
        assert "exceeds" in assert_protocol_error(exchange(server, raw), 400)


# -- connection reuse ------------------------------------------------------
def test_http11_serves_two_requests_on_one_connection(tmp_path):
    with running_server(tmp_path) as (server, _client):
        with connect(server) as sock:
            sock.sendall(request("GET", "/healthz"))
            sock.sendall(request("POST", "/v1/jobs", body=JOB))
            sock.sendall(request("GET", "/healthz", ["Connection: close"]))
            responses = parse_responses(read_to_close(sock))
    assert [status for status, _h, _b in responses] == [200, 202, 200]
    # The client asked to close, so only the server's own closes say so.
    assert all("connection" not in headers for _s, headers, _b in responses)
    for _status, headers, _body in responses:
        for name in ("server", "date", "content-type", "content-length",
                     "x-repro-trace"):
            assert name in headers


def test_http10_closes_after_one_request(tmp_path):
    with running_server(tmp_path) as (server, _client):
        with connect(server) as sock:
            sock.sendall(request("GET", "/healthz", version="HTTP/1.0"))
            # The server closes on its own after the response.
            responses = parse_responses(read_to_close(sock))
    assert [status for status, _h, _b in responses] == [200]
    # Closing is HTTP/1.0's default, so the response need not say so.
    assert "connection" not in responses[0][1]


def test_http10_keep_alive_stays_open(tmp_path):
    with running_server(tmp_path) as (server, _client):
        with connect(server) as sock:
            sock.sendall(request("GET", "/healthz", ["Connection: keep-alive"],
                                 version="HTTP/1.0"))
            sock.sendall(request("GET", "/healthz", version="HTTP/1.0"))
            responses = parse_responses(read_to_close(sock))
    assert [status for status, _h, _b in responses] == [200, 200]
    assert responses[0][1]["connection"] == "keep-alive"


def test_unread_body_closes_the_connection(tmp_path):
    with running_server(tmp_path) as (server, _client):
        with connect(server) as sock:
            # A GET route never reads a body; the bytes after the head
            # must not be served as a second request.
            smuggled = request("GET", "/healthz")
            sock.sendall(request("GET", "/nowhere", body=smuggled))
            responses = parse_responses(read_to_close(sock))
    assert [status for status, _h, _b in responses] == [404]


def test_concurrent_requests_are_all_recorded(tmp_path):
    """Handler threads record every request into the shared tracer and
    registry; a lost update would show as a short count."""
    threads, per_thread = 8, 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with running_server(tmp_path) as (server, client):
            def run():
                with connect(server) as sock:
                    for _ in range(per_thread - 1):
                        sock.sendall(request("GET", "/healthz"))
                    sock.sendall(request("GET", "/healthz", ["Connection: close"]))
                    box.append(len(parse_responses(read_to_close(sock))))

            box = []
            workers = [threading.Thread(target=run) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
                assert not worker.is_alive()
            assert box == [per_thread] * threads
            payload = client.metrics()
    finally:
        sys.setswitchinterval(interval)
    total = threads * per_thread
    # The metrics request itself is recorded after its payload is built.
    assert payload["metrics"]["service.http.requests"]["value"] == total
    assert payload["metrics"]["service.http.status.200"]["value"] == total
    assert payload["metrics"]["service.http.seconds.healthz"]["count"] == total
    assert payload["spans"]["service.request"]["count"] == total


# -- result bodies ------------------------------------------------------------
def test_result_bodies_are_json_dumps_of_the_route_payload(tmp_path):
    with running_server(tmp_path) as (server, client):
        first = client.submit(json.loads(JOB))
        client.wait(first["id"], timeout=120)
        fetches = [first["id"], first["id"], client.submit(json.loads(JOB))["id"]]
        for job_id in fetches:
            raw = request("GET", f"/v1/jobs/{job_id}/result", ["Connection: close"])
            status, _headers, body = one_response(exchange(server, raw))
            expected_status, fields = server.service.job_result(job_id)
            assert status == expected_status == 200
            assert body == json.dumps(fields).encode()
        # The store hit shares the stored payload object, and its text.
        assert server.service.job_result(fetches[2])[1]["cached"] is True


def test_result_text_memo_is_bounded_and_exact(monkeypatch):
    monkeypatch.setattr(server_mod, "RESULT_TEXT_BYTES", 200)
    memo = _ResultText()
    payloads = [{"labels": list(range(i, i + 8)), "x": i / 3} for i in range(30)]
    for _round in range(2):
        for payload in payloads + [{"labels": list(range(100))}, None]:
            for fields in ({"id": "j1", "cached": True, "result": payload},
                           {"result": payload}):
                assert memo.body(fields) == json.dumps(fields).encode()
    assert 0 < memo._bytes <= 200
    assert sum(len(text) for _p, text in memo._texts.values()) == memo._bytes


# -- fuzz --------------------------------------------------------------------
SEEDS = (
    request("GET", "/healthz", ["Accept: */*", "User-Agent: fuzz"]),
    request("GET", "/v1/jobs/abc123/result", ["X-Repro-Trace: 0-0-0"]),
    request("POST", "/v1/jobs", ["Content-Type: application/json"],
            body=json.dumps({"circuit": "NOPE", "num_planes": 2}).encode()),
    request("PATCH", "/v1/jobs/abc123", ["Content-Type: application/json"],
            body=b'{"diff": {}}'),
)


def split_head(raw):
    head, _sep, body = raw.partition(b"\r\n\r\n")
    return head + b"\r\n\r\n", body


@st.composite
def mutated_requests(draw):
    """A seed request whose head had lines and then bytes mutated."""
    head, body = split_head(draw(st.sampled_from(SEEDS)))
    lines = head.split(b"\r\n")[:-2]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["duplicate", "method", "version"]))
        if kind == "duplicate" and len(lines) > 1:
            at = draw(st.integers(1, len(lines) - 1))
            lines.insert(at, lines[at])
        elif kind == "method":
            method = draw(st.one_of(
                st.sampled_from([b"GET", b"POST", b"PATCH", b"PUT", b"get",
                                 b"CONNECT", b"", b"G ET"]),
                st.binary(max_size=8),
            ))
            lines[0] = method + b" " + lines[0].split(b" ", 1)[-1]
        elif kind == "version":
            version = draw(st.one_of(
                st.sampled_from([b"HTTP/1.0", b"HTTP/1.1", b"HTTP/1.2",
                                 b"HTTP/2.0", b"HTTP/0.9", b"HTTP/1", b"http/1.1",
                                 b"HTTP/11.1", b""]),
                st.binary(max_size=10),
            ))
            lines[0] = lines[0].rsplit(b" ", 1)[0] + b" " + version
    raw = b"\r\n".join(lines) + b"\r\n\r\n"
    kind = draw(st.sampled_from(["none", "flip", "truncate", "lf", "crlf"]))
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    elif kind == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif kind == "lf":
        raw = raw.replace(b"\r\n", b"\n")
    elif kind == "crlf":
        raw = raw.replace(b"\n", b"\r\n")
    return raw + body


def test_fuzzed_request_heads_never_hang_or_500(tmp_path, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 2.0)
    with running_server(tmp_path) as (server, client):

        @settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(mutated_requests())
        def check(raw):
            started = time.monotonic()
            with connect(server, timeout=5.0) as sock:
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
                stream = read_to_close(sock)
            assert time.monotonic() - started < 5.0
            for status, headers, body in parse_responses(stream):
                assert status != 500, body
                if status >= 400:
                    assert set(json.loads(body)) >= {"error", "message"}
                    assert headers["content-type"] == "application/json"

        check()
        assert client.health()["status"] == "ok"
        assert client.jobs() == []

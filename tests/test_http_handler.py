"""The HTTP server's connection handling, over raw sockets.

Handler threads are reused once idle, every socket read is bounded by
``_Handler.timeout``, and a malformed ``Content-Length`` gets a 400 —
never a 500, and never a handler reading until the client hangs up.
"""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, build_server
from repro.service.server import IDLE_HANDLER_THREADS, _Handler
from repro.service.store import ResultStore


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


def exchange(server, raw):
    """Send ``raw`` and read until the server closes; the response bytes."""
    with connect(server) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post(path, body, length=None):
    body = body.encode()
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body


def status_and_body(response):
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def lease_in_background(server, client, wait):
    """A fleet lease long-poll of ``wait`` s (no job is queued) on a thread."""
    server.service.fleet.start()
    box = {}

    def run():
        started = time.monotonic()
        _status, box["reply"] = client._request(
            "POST", "/fleet/v1/lease", {"worker": "w-test", "wait": wait}
        )
        box["seconds"] = time.monotonic() - started

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


# -- Content-Length -------------------------------------------------------
@pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
def test_malformed_content_length_is_a_400(tmp_path, length):
    with running_server(tmp_path) as (server, client):
        # The client keeps its end open: the server must answer and
        # close on its own rather than read to EOF.
        with connect(server) as sock:
            sock.sendall(post("/v1/jobs", '{"circuit": "KSA4"}', length=length))
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status, body = status_and_body(response)
        assert status == 400
        assert body["error"] == "bad-request"
        assert "Content-Length" in body["message"]
        # Nothing was admitted, and the same server still serves.
        assert client.jobs() == []
        status, body = status_and_body(exchange(
            server, post("/v1/jobs", json.dumps({"circuit": "KSA4",
                                                 "num_planes": 2}))
        ))
        assert status == 202 and body["outcome"] == "queued"


# -- idle read timeout ----------------------------------------------------
def test_silent_clients_are_closed_within_the_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with running_server(tmp_path, isolation="fleet") as (server, client):
        half_body = post("/v1/jobs", '{"circuit": "KSA4"}', length=400)
        half_line = b"GET /heal"
        lease, box = lease_in_background(server, client, wait=1.5)
        socks = [connect(server) for _ in range(2)]
        try:
            started = time.monotonic()
            socks[0].sendall(half_body)
            socks[1].sendall(half_line)
            # Other clients are served while both connections stall.
            assert client.health()["status"] == "ok"
            for sock in socks:
                assert sock.recv(65536) == b""
            assert time.monotonic() - started < 5.0
        finally:
            for sock in socks:
                sock.close()
        # A long-poll waits in server code, not in a socket read.
        lease.join(10)
        assert box["reply"]["leases"] == []
        assert box["seconds"] >= 1.4


# -- handler threads ------------------------------------------------------
def test_sequential_requests_reuse_a_handful_of_threads(tmp_path):
    with running_server(tmp_path) as (server, client):
        names = set()
        health = server.service.health

        def recording_health():
            names.add(threading.current_thread().name)
            return health()

        server.service.health = recording_health
        for _ in range(200):
            assert client.health()["status"] == "ok"
    assert 1 <= len(names) <= IDLE_HANDLER_THREADS + 1


def test_thread_count_returns_to_baseline_after_close(tmp_path):
    baseline = threading.active_count()
    with running_server(tmp_path) as (server, client):
        threads = [
            threading.Thread(target=client.health) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert threading.active_count() > baseline
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.02)
    assert threading.active_count() == baseline


def test_health_answers_during_a_lease_long_poll(tmp_path):
    with running_server(tmp_path, isolation="fleet") as (server, client):
        lease, box = lease_in_background(server, client, wait=2.0)
        time.sleep(0.1)
        started = time.monotonic()
        assert client.health()["status"] == "ok"
        assert time.monotonic() - started < 0.5
        assert lease.is_alive()
        lease.join(10)
        assert box["reply"]["leases"] == []


def test_shutdown_returns_with_an_idle_connection_open(tmp_path):
    server = build_server(host="127.0.0.1", port=0, workers=1, queue_size=4,
                          store=ResultStore(root=str(tmp_path), enabled=True))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    idle = connect(server)
    try:
        # One keep-alive request, then the connection sits idle.
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert idle.recv(65536).startswith(b"HTTP/1.1 200")
        started = time.monotonic()
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert time.monotonic() - started < 2.0
        assert not thread.is_alive()
    finally:
        idle.close()

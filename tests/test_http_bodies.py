"""Request bodies the server must refuse cleanly, over raw sockets.

A body that is not JSON, nests too deep, or fails validation is a JSON
4xx, never a 500 or a hang, on every body route.  A Hypothesis fuzz
mutates valid ``POST /v1/jobs`` bodies — truncations, byte flips, wrong
types, unknown fields, NaN/Infinity, deep nesting, non-UTF-8 bytes and
huge integers — and checks that each ends in a JSON 4xx or a 200/202
within a time bound; that a refused body is never kept by the request
memo, so sending it again is refused again; and that valid bytes get
the same ``key`` from the memo as from a cold validation.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.api import request_key, validate_eco_body, validate_request
from tests.test_http_protocol import (
    connect,
    one_response,
    read_to_close,
    request,
    running_server,
)

BASES = (
    {"circuit": "KSA4", "num_planes": 2},
    {"circuit": "KSA4", "num_planes": 3, "seed": 5, "method": "gradient",
     "engine": "batched", "refine": True},
    {"circuit": "KSA4", "num_planes": 2, "pinned": {"x0_0": 1},
     "weights": {"c1": 80.0}},
    {"kind": "plan", "circuit": "KSA4", "bias_limit_ma": 50.0},
)
BODY_ROUTES = (
    ("POST", "/v1/jobs"), ("POST", "/v1/sweeps"), ("PATCH", "/v1/jobs/abc123"),
    ("POST", "/fleet/v1/lease"), ("POST", "/fleet/v1/heartbeat"),
    ("POST", "/fleet/v1/complete"),
)


def send(server, raw, method="POST", target="/v1/jobs"):
    """``(status, headers, JSON body)`` of one request on its own connection."""
    with connect(server, timeout=10.0) as sock:
        sock.sendall(request(method, target, ["Connection: close"], body=raw))
        status, headers, body = one_response(read_to_close(sock))
    return status, headers, json.loads(body)


def assert_json_4xx(status, headers, payload):
    assert 400 <= status < 500, payload
    assert headers["content-type"] == "application/json"
    assert set(payload) >= {"error", "message"}


# -- pinned examples ------------------------------------------------------
@pytest.mark.parametrize("method,target", BODY_ROUTES)
def test_deeply_nested_body_is_a_400(tmp_path, method, target):
    """``json.loads`` recurses once per level; its RecursionError was a 500."""
    with running_server(tmp_path) as (server, client):
        status, headers, payload = send(server, b"[" * 100000, method, target)
        assert_json_4xx(status, headers, payload)
        assert status == 400 and payload["error"] == "bad-request"
        assert "nests too deep" in payload["message"]
        assert client.health()["status"] == "ok"


def test_deep_value_in_an_inline_netlist_is_a_400(tmp_path):
    """A netlist parses, but an extra value nested past what
    ``request_key``'s canonical walk can recurse through was a 500."""
    from repro.circuits.suite import build_circuit
    from repro.netlist.serialize import netlist_to_dict

    netlist = dict(netlist_to_dict(build_circuit("KSA4")), extra="@")
    body = json.dumps({"netlist": netlist, "num_planes": 2}).encode()
    with running_server(tmp_path) as (server, client):
        status, headers, payload = send(
            server, body.replace(b'"@"', b"[" * 900 + b"]" * 900)
        )
        assert_json_4xx(status, headers, payload)
        assert "nests too deep" in payload["message"]
        assert client.jobs() == []


@pytest.mark.parametrize("body,message", [
    ({"circuit": "KSA4", "num_planes": 2, "method": ["gradient"]}, "unknown method"),
    ({"circuit": "KSA4", "num_planes": 2, "weights": {"c1": 10 ** 400}},
     "weight c1 must be a finite number"),
    ({"kind": "plan", "circuit": "KSA4", "bias_limit_ma": 10 ** 400},
     "bias_limit_ma must be a finite number"),
    ({"kind": "plan", "circuit": "KSA4", "bias_limit_ma": float("inf")},
     "bias_limit_ma must be a finite number"),
], ids=["list-method", "huge-int-weight", "huge-int-bias", "infinite-bias"])
def test_fuzz_found_bodies_are_400s(tmp_path, body, message):
    """Bodies the fuzz below found answered 500 (an unhashable method,
    an int past the float range) or queued a job (an infinite bias
    limit, echoed as non-standard JSON ``Infinity``)."""
    with running_server(tmp_path) as (server, client):
        status, headers, payload = send(server, json.dumps(body).encode())
        assert_json_4xx(status, headers, payload)
        assert message in payload["message"]
        assert client.jobs() == []


def test_infinite_lease_max_jobs_is_a_400(tmp_path):
    """``int(inf)`` raised OverflowError, a 500."""
    with running_server(tmp_path, isolation="fleet") as (server, _client):
        status, headers, payload = send(
            server, b'{"worker": "w", "max_jobs": Infinity}', "POST", "/fleet/v1/lease"
        )
    assert_json_4xx(status, headers, payload)
    assert "max_jobs" in payload["message"]


def test_huge_int_quality_eps_is_a_400():
    from repro.circuits.suite import build_circuit
    from repro.netlist.diff import diff_netlists
    from repro.service.errors import BadRequestError

    netlist = build_circuit("KSA4")
    diff = diff_netlists(netlist, netlist)
    assert validate_eco_body({"diff": diff, "quality_eps": 0.5})["quality_eps"] == 0.5
    with pytest.raises(BadRequestError, match="quality_eps"):
        validate_eco_body({"diff": diff, "quality_eps": 10 ** 400})


def test_refused_body_is_not_memoized_and_valid_one_is(tmp_path):
    valid = json.dumps({"circuit": "KSA4", "num_planes": 2}).encode()
    invalid = json.dumps({"circuit": "KSA4", "num_planes": 0}).encode()
    with running_server(tmp_path) as (server, _client):
        status, _headers, first = send(server, invalid)
        assert status == 400
        assert server.service.requests.get(invalid) is None
        assert send(server, invalid)[::2] == (400, first)
        status, _headers, job = send(server, valid)
        assert status == 202
        assert server.service.requests.get(valid) == (job["request"], job["key"])
        status, _headers, again = send(server, valid)
        assert again["key"] == job["key"]
        assert again["outcome"] in ("deduped", "cached")


# -- fuzz -----------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=8),
        st.integers(-3, 8), st.integers(-10 ** 30, 10 ** 30),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=6,
)
FIELDS = ("kind", "circuit", "netlist", "num_planes", "method", "engine",
          "seed", "refine", "pinned", "bias_limit_ma", "weights", "k_values",
          "weight_ratios", "clock_ghz", "numplanes", "")


def _literal(value):
    """Raw JSON text spliced in for a marker string."""
    return {"nan": b"NaN", "inf": b"Infinity", "-inf": b"-Infinity",
            "deep": b"[" * 5000 + b"]" * 5000, "huge": b"9" * 500}[value]


@st.composite
def mutated_bodies(draw):
    """A valid body mutated as a dict, then as bytes."""
    body = dict(draw(st.sampled_from(BASES)))
    literals = {}
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["set", "literal", "drop"]))
        field = draw(st.sampled_from(FIELDS))
        if kind == "set":
            body[field] = draw(JSON_VALUES)
        elif kind == "literal":
            marker = f"@{len(literals)}@"
            body[field] = marker
            literals[marker] = _literal(
                draw(st.sampled_from(["nan", "inf", "-inf", "deep", "huge"]))
            )
        else:
            body.pop(field, None)
    raw = json.dumps(body).encode()
    for marker, literal in literals.items():
        raw = raw.replace(json.dumps(marker).encode(), literal)
    kind = draw(st.sampled_from(["none", "none", "truncate", "flip", "latin1",
                                 "bad-utf8", "deep"]))
    if kind == "truncate":
        raw = raw[:draw(st.integers(1, len(raw)))]
    elif kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    elif kind == "latin1":
        raw = raw.replace(b"KSA4", "KSÅ4".encode("latin-1"))
    elif kind == "bad-utf8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])) + raw[at:]
    elif kind == "deep":
        raw = b"[" * draw(st.integers(1000, 50000)) + raw
    return raw


def _reference_key(raw):
    """The key a cold validation of ``raw`` gives, or None when refused."""
    try:
        return request_key(validate_request(json.loads(raw)))
    except Exception:  # noqa: BLE001 - any refusal, checked against the server
        return None


def test_fuzzed_job_bodies_never_hang_or_500(tmp_path):
    with running_server(tmp_path, queue_size=512) as (server, client):

        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(mutated_bodies())
        def check(raw):
            started = time.monotonic()
            status, headers, payload = send(server, raw)
            assert time.monotonic() - started < 5.0
            assert status != 500, payload
            if status >= 400:
                assert_json_4xx(status, headers, payload)
                if status != 429:  # a full queue refuses valid bodies too
                    assert _reference_key(raw) is None
                    assert server.service.requests.get(raw) is None
                    assert send(server, raw)[::2] == (status, payload)
                return
            assert status in (200, 202), payload
            assert payload["key"] == _reference_key(raw)
            status, _headers, again = send(server, raw)
            assert status in (200, 202) and again["key"] == payload["key"]

        check()
        assert client.health()["status"] == "ok"

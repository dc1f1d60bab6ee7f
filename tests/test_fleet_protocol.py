"""Wire serialization and knobs of the fleet protocol."""

import json

import pytest

from repro import envcfg
from repro.core.config import PartitionConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.harness.runner import SuiteJob
from repro.harness.wire import JOB_WIRE_VERSION, job_from_wire, job_to_wire
from repro.service.api import request_to_job, validate_request
from repro.utils.errors import ReproError


def roundtrip(job):
    """Serialize through *real* JSON text, like a network hop does."""
    wire = json.loads(json.dumps(job_to_wire(job)))
    return job_from_wire(wire)


def test_minimal_job_roundtrips_field_for_field():
    job = request_to_job(
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": 7})
    )
    assert roundtrip(job) == job


def test_full_job_roundtrips_with_config_pins_and_eco():
    from repro.circuits.suite import build_circuit
    from repro.netlist.serialize import netlist_to_dict

    netlist = netlist_to_dict(build_circuit("KSA4"))
    job = SuiteJob(
        kind="eco",
        circuit=netlist["name"],
        num_planes=3,
        method="gradient",
        seed=11,
        config=PartitionConfig(restarts=2, max_iterations=50, seed=11),
        refine=False,
        bias_limit_ma=80.0,
        netlist_json=netlist,
        pinned={"g0": 0, "g3": 2},
        prev_labels=tuple([0] * len(netlist["gates"])),
        eco={"touched": ["g1"], "halo": 1},
    )
    rebuilt = roundtrip(job)
    assert rebuilt == job
    assert isinstance(rebuilt.config, PartitionConfig)
    assert isinstance(rebuilt.prev_labels, tuple)


def test_wire_dict_is_pure_json():
    job = request_to_job(
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": 7})
    )
    wire = job_to_wire(job)
    assert wire["version"] == JOB_WIRE_VERSION
    # json round-trip must not change the dict at all
    assert json.loads(json.dumps(wire)) == wire


def test_unknown_wire_version_is_rejected():
    job = request_to_job(
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": 7})
    )
    wire = job_to_wire(job)
    wire["version"] = JOB_WIRE_VERSION + 1
    with pytest.raises(ReproError, match="wire version"):
        job_from_wire(wire)


@pytest.mark.parametrize("wire", [None, [], "job", {"version": JOB_WIRE_VERSION}])
def test_malformed_wire_dicts_are_rejected(wire):
    with pytest.raises(ReproError):
        job_from_wire(wire)


def test_bad_config_field_is_rejected():
    job = request_to_job(
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": 7})
    )
    wire = job_to_wire(job)
    wire["config"] = {"no_such_knob": 1}
    with pytest.raises(ReproError, match="config"):
        job_from_wire(wire)


def test_job_to_wire_rejects_non_jobs():
    with pytest.raises(ReproError, match="SuiteJob"):
        job_to_wire({"kind": "partition"})


# -- knob resolvers -----------------------------------------------------

def test_lease_ttl_explicit_env_and_default():
    ttl = "REPRO_FLEET_LEASE_TTL"
    assert envcfg.resolve(ttl, 5, environ={}) == 5.0
    assert envcfg.resolve(ttl, None, environ={ttl: "12"}) == 12.0
    assert envcfg.resolve(ttl, None, environ={}) == 30.0
    with pytest.raises(ReproError):
        envcfg.resolve(ttl, 0, environ={})


def test_heartbeat_is_a_third_of_the_lease_ttl():
    assert FleetCoordinator(lease_ttl=30).heartbeat_s == pytest.approx(10.0)
    assert FleetCoordinator(lease_ttl=1.5).heartbeat_s == pytest.approx(0.5)


def test_max_inflight_and_poll_resolvers():
    inflight, poll = "REPRO_FLEET_MAX_INFLIGHT", "REPRO_FLEET_POLL"
    assert envcfg.resolve(inflight, None, environ={}) == 2
    assert envcfg.resolve(inflight, 4, environ={}) == 4
    assert envcfg.resolve(inflight, None, environ={inflight: "3"}) == 3
    with pytest.raises(ReproError):
        envcfg.resolve(inflight, 0, environ={})
    assert envcfg.resolve(poll, None, environ={}) == 2.0
    assert envcfg.resolve(poll, 0, environ={}) == 0.0
    with pytest.raises(ReproError):
        envcfg.resolve(poll, -1, environ={})


def test_worker_id_resolution_order():
    worker_id = "REPRO_FLEET_WORKER_ID"
    assert envcfg.resolve(worker_id, "w9", environ={}) == "w9"
    assert envcfg.resolve(worker_id, None, environ={worker_id: "envy"}) == "envy"
    fallback = envcfg.resolve(worker_id, None, environ={})
    assert "-" in fallback and len(fallback) > 3

"""Tests for the JSONL suite checkpoint (repro.harness.checkpoint)."""

import json

import numpy as np
import pytest

from repro.core.config import PartitionConfig
from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SuiteCheckpoint,
    job_key,
    payload_from_jsonable,
    payload_to_jsonable,
)
from repro.harness.runner import SuiteJob, execute_job
from repro.utils.errors import ReproError

FAST = PartitionConfig(restarts=2, max_iterations=200)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    from repro.cache import reset_default_cache
    from repro.circuits import suite

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    reset_default_cache()
    suite._NETLIST_CACHE.clear()
    yield
    reset_default_cache()
    suite._NETLIST_CACHE.clear()


def _job(**overrides):
    base = dict(kind="partition", circuit="KSA4", num_planes=3, seed=11, config=FAST)
    base.update(overrides)
    return SuiteJob(**base)


# ----------------------------------------------------------------------
# job_key
# ----------------------------------------------------------------------
def test_job_key_is_stable_and_content_addressed():
    assert job_key(_job()) == job_key(_job())
    assert job_key(_job()) != job_key(_job(seed=12))
    assert job_key(_job()) != job_key(_job(num_planes=4))
    assert job_key(_job()) != job_key(_job(circuit="KSA8"))
    assert job_key(_job()) != job_key(_job(config=FAST.with_(restarts=3)))


def test_job_key_covers_the_multilevel_version_of_multilevel_jobs_only(monkeypatch):
    """A multilevel row from before a change to that engine's answers is
    re-run, not resumed; batched keys stay as they were."""
    import repro.harness.checkpoint as checkpoint_mod

    batched = _job()
    multilevel = _job(config=FAST.with_(engine="multilevel"))
    before = job_key(batched), job_key(multilevel)
    monkeypatch.setattr(
        checkpoint_mod, "MULTILEVEL_VERSION", checkpoint_mod.MULTILEVEL_VERSION + 1
    )
    assert job_key(batched) == before[0]
    assert job_key(multilevel) != before[1]


def test_job_key_canonicalizes_numpy_scalars():
    assert job_key(_job(seed=np.int64(11))) == job_key(_job(seed=11))
    assert job_key(_job(num_planes=np.int64(3))) == job_key(_job(num_planes=3))


# ----------------------------------------------------------------------
# Payload round-trip
# ----------------------------------------------------------------------
def test_payload_roundtrip_is_bitwise_exact():
    payload = execute_job(_job())
    restored = payload_from_jsonable(
        json.loads(json.dumps(payload_to_jsonable(payload)))
    )
    assert restored["circuit"] == payload["circuit"]
    assert np.array_equal(restored["labels"], payload["labels"])
    assert restored["labels"].dtype == np.intp
    original, back = payload["report"], restored["report"]
    # Every float must survive the JSON round trip bit for bit.
    for name in ("circuit", "num_planes", "num_gates", "num_connections",
                 "frac_d_le_1", "frac_d_le_2", "frac_d_le_half_k",
                 "mean_distance", "coupling_pairs"):
        assert getattr(original, name) == getattr(back, name), name
    assert np.array_equal(original.bias.per_plane_ma, back.bias.per_plane_ma)
    assert original.bias.total_ma == back.bias.total_ma
    assert np.array_equal(original.area.per_plane_mm2, back.area.per_plane_mm2)
    assert original.area.free_space_pct == back.area.free_space_pct


# ----------------------------------------------------------------------
# SuiteCheckpoint store
# ----------------------------------------------------------------------
def test_checkpoint_append_and_load(tmp_path):
    path = tmp_path / "cp.jsonl"
    store = SuiteCheckpoint(str(path))
    assert not store.exists()
    assert store.load() == {}

    job = _job()
    payload = execute_job(job)
    key = job_key(job)
    store.append(key, payload)
    assert store.exists()

    loaded = SuiteCheckpoint(str(path)).load()
    assert list(loaded) == [key]
    assert np.array_equal(loaded[key]["labels"], payload["labels"])


def test_checkpoint_duplicate_keys_last_wins(tmp_path):
    path = tmp_path / "cp.jsonl"
    store = SuiteCheckpoint(str(path))
    job = _job()
    payload = execute_job(job)
    store.append(job_key(job), payload)
    store.append(job_key(job), payload)
    loaded = store.load()
    assert len(loaded) == 1
    assert store.corrupt_lines == 0


def test_checkpoint_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cp.jsonl"
    store = SuiteCheckpoint(str(path))
    job = _job()
    store.append(job_key(job), execute_job(job))

    good_line = path.read_text()
    tampered = json.loads(good_line)
    tampered["payload"]["circuit"] = "EVIL"  # checksum now mismatches
    with open(path, "a") as handle:
        handle.write("{not json\n")                    # garbled
        handle.write(json.dumps({"v": 999}) + "\n")    # schema drift
        handle.write(json.dumps(tampered) + "\n")      # checksum mismatch
        handle.write(good_line[: len(good_line) // 2]) # torn trailing write

    loaded = store.load()
    assert list(loaded) == [job_key(job)]
    assert store.corrupt_lines == 4


def test_checkpoint_schema_version_invalidates(tmp_path):
    path = tmp_path / "cp.jsonl"
    store = SuiteCheckpoint(str(path))
    job = _job()
    store.append(job_key(job), execute_job(job))
    line = json.loads(path.read_text())
    assert line["v"] == CHECKPOINT_SCHEMA_VERSION
    line["v"] = CHECKPOINT_SCHEMA_VERSION + 1
    path.write_text(json.dumps(line) + "\n")
    assert store.load() == {}
    assert store.corrupt_lines == 1


def test_checkpoint_rejects_empty_path():
    with pytest.raises(ReproError, match="checkpoint path"):
        SuiteCheckpoint("")


def test_job_key_covers_inline_netlist_and_pinned():
    """Service-only fields change the key only when actually set."""
    base = SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=1)
    explicit_defaults = SuiteJob(
        kind="partition", circuit="KSA4", num_planes=3, seed=1,
        netlist_json=None, pinned=None,
    )
    assert job_key(base) == job_key(explicit_defaults)

    pinned = SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=1,
                      pinned={"g0": 0})
    assert job_key(pinned) != job_key(base)

    from repro.circuits.suite import build_circuit
    from repro.netlist.serialize import netlist_to_dict

    data = netlist_to_dict(build_circuit("KSA4"))
    inline = SuiteJob(kind="partition", circuit=data["name"], num_planes=3,
                      seed=1, netlist_json=data)
    assert job_key(inline) != job_key(base)
    tweaked = dict(data, edges=list(data["edges"][:-1]))
    inline_tweaked = SuiteJob(kind="partition", circuit=data["name"],
                              num_planes=3, seed=1, netlist_json=tweaked)
    assert job_key(inline_tweaked) != job_key(inline)

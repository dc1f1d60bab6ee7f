"""The result store's verified-bytes memo.

A store read re-reads the entry file every time; when its bytes equal
bytes the same cache object already parsed and verified, the read
returns that parse (:data:`repro.cache.store.VERIFIED_MEMO_BYTES`).
These tests hold the memo to a cold read: the same answers, the same
hit/miss/corrupt counts and the same deletions, whatever happens to the
file between reads.
"""

import contextlib
import json
import os
import sys
import threading
import time

import pytest

import repro.cache.store as cache_store
from repro.circuits.suite import build_circuit
from repro.harness.checkpoint import payload_from_jsonable
from repro.netlist.diff import netlist_diff
from repro.netlist.library import default_library
from repro.netlist.serialize import library_fingerprint, netlist_to_dict
from repro.service import ServiceClient, build_server
from repro.service.gc import run_gc
from repro.service.server import PartitionService
from repro.service.store import RESULT_KIND, ResultStore

KEY = "ab" + "0" * 62
PAYLOAD = {"labels": [0, 1, 2, 1, 0], "report": None, "num_planes": 3}
META = {"request": {"kind": "partition", "circuit": "KSA4", "num_planes": 3}}


def put(store, key=KEY, payload=PAYLOAD, meta=META):
    store._cache.put(key, RESULT_KIND, payload, meta=meta)
    return store._cache._entry_paths(key)[0]


def counts(store):
    return store.snapshot_stats(), dict(store._cache.stats)


def flip_label(_store, path):
    """Change one label digit in place: same size, same mtime, bad checksum."""
    stat = os.stat(path)
    with open(path, "r+b") as handle:
        raw = handle.read()
        at = raw.index(b'"labels": [') + len(b'"labels": [')
        handle.seek(at)
        handle.write(b"7" if raw[at:at + 1] != b"7" else b"8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def truncate(_store, path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def replace_with_a_list(_store, path):
    with open(path, "wb") as handle:
        handle.write(b"[]")


def remove(store, _path):
    store.remove(KEY)


def collect(store, path):
    os.utime(path, (time.time() - 3600, time.time() - 3600))
    assert run_gc(store, max_age=60)["removed"] == 1


#: On-disk changes after a memoized hit, each ``(store, entry path)``.
EDITS = {
    "flip": flip_label,
    "truncate": truncate,
    "not-an-object": replace_with_a_list,
    "remove": remove,
    "gc": collect,
}


@pytest.mark.parametrize("change", sorted(EDITS))
def test_change_after_a_memoized_hit_reads_like_a_cold_read(tmp_path, change):
    outcomes = []
    for warm in (True, False):
        store = ResultStore(root=str(tmp_path / str(warm)), enabled=True)
        path = put(store)
        if warm:
            assert store.get(KEY) == PAYLOAD
            assert store.get(KEY) == PAYLOAD
            assert KEY in store._cache._memo
        before = counts(store)
        EDITS[change](store, path)
        got = store.get_with_meta(KEY)
        after = counts(store)
        delta = (
            {name: after[0][name] - before[0][name] for name in after[0]},
            {name: after[1][name] - before[1][name] for name in after[1]},
        )
        outcomes.append((got, delta, os.path.exists(path)))
        assert KEY not in store._cache._memo
    assert outcomes[0] == outcomes[1]
    got, (store_delta, cache_delta), exists = outcomes[0]
    assert got is None and not exists
    assert store_delta["misses"] == 1 and store_delta["hits"] == 0
    corrupt = change in ("flip", "truncate", "not-an-object")
    assert cache_delta["corrupt"] == (1 if corrupt else 0)


def test_rewritten_entry_is_reverified(tmp_path):
    store = ResultStore(root=str(tmp_path), enabled=True)
    put(store)
    assert store.get(KEY) == PAYLOAD
    changed = dict(PAYLOAD, labels=[2, 2, 2, 2, 2])
    put(store, payload=changed)
    assert store.get(KEY) == changed
    assert store._cache._memo[KEY][2] == changed


def _hit_sequence(tmp_path, monkeypatch, memo):
    if not memo:
        monkeypatch.setattr(cache_store, "VERIFIED_MEMO_BYTES", 0)
    store = ResultStore(root=str(tmp_path / ("memo" if memo else "cold")),
                        enabled=True)
    service = PartitionService(workers=1, queue_size=4, retries=0,
                               backoff=0.0, store=store).start()
    try:
        status, job = service.submit({"circuit": "KSA4", "num_planes": 2})
        assert status == 202
        service.manager.get(job["id"]).done_event.wait(120)
        for _ in range(5):
            status, job = service.submit({"circuit": "KSA4", "num_planes": 2})
            assert status == 200 and job["outcome"] == "cached"
        service.eco_submit(job["key"], {"diff": _diff("KSA4", swaps=0)})
        payloads = [service.job_result(job["id"])[1]["result"]]
        payloads.append(store.get(job["key"]))
        metrics = service.metrics.as_dict()
    finally:
        service.stop()
    assert bool(store._cache._memo) == memo
    return (
        counts(store),
        metrics["service.store.hits"]["value"],
        metrics["service.eco.cache_hits"]["value"],
        json.dumps(payloads, sort_keys=True),
    )


def test_hit_counts_equal_those_with_the_memo_bypassed(tmp_path, monkeypatch):
    memo = _hit_sequence(tmp_path, monkeypatch, memo=True)
    cold = _hit_sequence(tmp_path, monkeypatch, memo=False)
    assert memo == cold
    (store_stats, _cache_stats), hits, _eco_hits, _ = memo
    assert hits == 6 and store_stats["hits"] == 8


def test_memo_stays_within_its_bound(tmp_path, monkeypatch):
    store = ResultStore(root=str(tmp_path), enabled=True)
    keys = [f"{index:02x}" + "1" * 62 for index in range(12)]
    sizes = [os.path.getsize(put(store, key=key)) for key in keys]
    bound = 3 * max(sizes)
    monkeypatch.setattr(cache_store, "VERIFIED_MEMO_BYTES", bound)
    for key in keys:
        assert store.get(key) == PAYLOAD
        memo = store._cache._memo
        assert store._cache._memo_bytes == sum(len(v[1]) for v in memo.values())
        assert store._cache._memo_bytes <= bound
    assert list(store._cache._memo) == keys[-3:]
    hits = store.snapshot_stats()["hits"]
    assert store.get(keys[0]) == PAYLOAD
    assert store.snapshot_stats()["hits"] == hits + 1
    assert keys[0] in store._cache._memo and keys[1] not in store._cache._memo


def test_entries_with_arrays_are_not_memoized(tmp_path):
    import numpy as np

    cache = cache_store.ArtifactCache(root=str(tmp_path))
    cache.put(KEY, "netlist", PAYLOAD, arrays={"edges": np.arange(4)})
    for _ in range(2):
        payload, arrays = cache.get(KEY, "netlist")
        assert payload == PAYLOAD and arrays["edges"].tolist() == [0, 1, 2, 3]
    assert not cache._memo


def test_concurrent_gets_return_equal_payloads(tmp_path, monkeypatch):
    store = ResultStore(root=str(tmp_path), enabled=True)
    keys = [f"{index:02x}" + "2" * 62 for index in range(4)]
    expected = {}
    for index, key in enumerate(keys):
        expected[key] = dict(PAYLOAD, labels=[index] * 5)
        size = os.path.getsize(put(store, key=key, payload=expected[key]))
    # Room for two of the four entries, so reads also evict concurrently.
    monkeypatch.setattr(cache_store, "VERIFIED_MEMO_BYTES", 2 * size)
    start = threading.Barrier(8)
    wrong = []

    def reader(offset):
        start.wait()
        for step in range(200):
            key = keys[(offset + step) % len(keys)]
            if store.get(key) != expected[key]:
                wrong.append(key)

    threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert store.snapshot_stats()["hits"] == 8 * 200
    assert store._cache.stats["corrupt"] == 0
    memo = store._cache._memo
    assert store._cache._memo_bytes == sum(len(v[1]) for v in memo.values())
    assert store._cache._memo_bytes <= 2 * size


# -- read-only contract, end to end ------------------------------------
CELL_SWAP = {"AND2": "OR2", "OR2": "AND2", "XOR2": "XNOR2", "XNOR2": "XOR2"}


def _diff(circuit, swaps=2):
    base = netlist_to_dict(build_circuit(circuit))
    edited = dict(base, gates=[dict(gate) for gate in base["gates"]])
    swapped = 0
    for gate in edited["gates"]:
        if swapped < swaps and gate["cell"] in CELL_SWAP:
            gate["cell"] = CELL_SWAP[gate["cell"]]
            swapped += 1
    assert swapped == swaps
    return netlist_diff(base, edited, library_fingerprint(default_library()))


@contextlib.contextmanager
def running_server(store):
    server = build_server(host="127.0.0.1", port=0, workers=2, queue_size=8,
                          retries=0, backoff=0.0, store=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url, timeout=60.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_memoized_payload_and_meta_stay_equal_to_the_file(tmp_path):
    store = ResultStore(root=str(tmp_path), enabled=True)
    netlist = netlist_to_dict(build_circuit("KSA4"))
    base = {"netlist": netlist, "num_planes": 2}
    with running_server(store) as client:
        client.partition(base, timeout=120.0)
        hit = client.submit(base)
        assert hit["outcome"] == "cached"
        key = hit["key"]
        decoded = payload_from_jsonable(client.result(hit["id"])["result"])
        assert len(decoded["labels"]) == len(netlist["gates"])
        eco = client.eco_submit(key, {"diff": _diff("KSA4")})
        if eco["state"] != "done":
            client.wait(eco["id"], timeout=120.0)
        edited = client.result(eco["id"])["result"]
        assert edited["eco"]["mode"] in ("warm", "cold")
        client.sweep({"netlist": netlist, "k_values": [2],
                      "weight_ratios": [1.0]}, timeout=120.0)
        hits = client.metrics()["metrics"]["service.sweep.point_cache_hits"]
        assert hits["value"] == 1
    kind, raw, payload, meta = store._cache._memo[key]
    with open(store._cache._entry_paths(key)[0], "rb") as handle:
        on_disk = json.loads(handle.read())
    assert kind == RESULT_KIND and raw == json.dumps(on_disk).encode()
    assert payload == on_disk["payload"]
    assert meta == on_disk["meta"]
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        on_disk["payload"], sort_keys=True
    )

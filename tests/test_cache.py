"""Tests for the content-keyed on-disk artifact cache (repro.cache)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cache import (
    ArtifactCache,
    cache_enabled,
    cache_key,
    default_cache,
    default_cache_root,
    load_cached_netlist,
    netlist_key,
    reset_default_cache,
    store_netlist,
)
from repro.circuits import suite
from repro.circuits.suite import build_circuit, netlist_cache_key
from repro.netlist.library import CellLibrary, default_library
from repro.synth.flow import SynthesisOptions


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the default cache at a throwaway directory for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    reset_default_cache()
    suite._NETLIST_CACHE.clear()
    yield
    reset_default_cache()
    suite._NETLIST_CACHE.clear()


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_cache_key_changes_with_every_input():
    base = cache_key("netlist", ["gen", {"width": 4}], {"opt": 1}, "libhash")
    assert cache_key("other", ["gen", {"width": 4}], {"opt": 1}, "libhash") != base
    assert cache_key("netlist", ["gen", {"width": 8}], {"opt": 1}, "libhash") != base
    assert cache_key("netlist", ["gen", {"width": 4}], {"opt": 2}, "libhash") != base
    assert cache_key("netlist", ["gen", {"width": 4}], {"opt": 1}, "other") != base
    # ... and is stable for identical inputs (dict ordering canonicalized).
    assert cache_key("netlist", [{"b": 1, "a": 2}], {}, "h") == \
        cache_key("netlist", [{"a": 2, "b": 1}], {}, "h")


def test_netlist_key_changes_with_generator_params():
    assert netlist_cache_key("KSA4") != netlist_cache_key("KSA8")


def test_netlist_key_changes_with_synthesis_options():
    default = netlist_cache_key("KSA4")
    unbalanced = netlist_cache_key(
        "KSA4", options=SynthesisOptions(balance_outputs=False)
    )
    assert default != unbalanced
    # Explicitly passing the default options is the same key as None.
    assert netlist_cache_key("KSA4", options=SynthesisOptions()) == default


def test_netlist_key_changes_with_library():
    library = default_library()
    tweaked_cells = [
        dataclasses.replace(cell, bias_ma=cell.bias_ma * 2.0)
        if cell.name == "DFF" else cell
        for cell in library
    ]
    tweaked = CellLibrary(library.name, tweaked_cells)
    assert netlist_cache_key("KSA4", library=library) != \
        netlist_cache_key("KSA4", library=tweaked)


def test_netlist_key_unknown_circuit():
    from repro.utils.errors import ReproError

    with pytest.raises(ReproError, match="unknown benchmark circuit"):
        netlist_cache_key("NOPE")


# ----------------------------------------------------------------------
# Store round trips
# ----------------------------------------------------------------------
def test_put_get_roundtrip_with_arrays(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    arrays = {"edges": np.array([[0, 1], [1, 2]], dtype=np.intp)}
    cache.put(key, "netlist", {"answer": 42}, arrays=arrays, meta={"circuit": "X"})

    payload, loaded = cache.get(key, "netlist")
    assert payload == {"answer": 42}
    assert np.array_equal(loaded["edges"], arrays["edges"])
    assert cache.stats["writes"] == 1 and cache.stats["hits"] == 1


def test_entry_file_is_one_json_dumps_of_the_entry(tmp_path):
    """``put`` writes ``json.dumps(entry)``: the text ``json.dump``
    wrote before, encoded in one call."""
    import io

    from repro.cache.store import CACHE_SCHEMA_VERSION, _payload_checksum

    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    payload = {"labels": [0, 2, 1], "cost": 1 / 3, "name": "KSA\u00e9",
               "nested": {"b": [1.5e-300, None, True], "a": "x"}}
    meta = {"request": {"circuit": "KSA4", "num_planes": 2}}
    json_path = cache.put(key, "netlist", payload, meta=meta)
    entry = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "netlist",
        "key": key,
        "meta": meta,
        "checksum": _payload_checksum(payload),
        "arrays": [],
        "payload": payload,
    }
    streamed = io.StringIO()
    json.dump(entry, streamed)
    with open(json_path) as handle:
        text = handle.read()
    assert text == json.dumps(entry) == streamed.getvalue()


def test_get_miss_and_kind_mismatch(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    assert cache.get(key, "netlist") is None
    assert cache.stats["misses"] == 1
    cache.put(key, "netlist", {"x": 1})
    # Asking for the same key under a different kind is corruption-class.
    assert cache.get(key, "placement") is None
    assert cache.stats["corrupt"] == 1
    # The poisoned entry was dropped, so the original kind now misses too.
    assert cache.get(key, "netlist") is None


def test_corrupt_json_falls_back_to_miss(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    json_path = cache.put(key, "netlist", {"x": 1})
    with open(json_path, "w") as handle:
        handle.write('{"schema": 1, "kind": "netl')  # truncated write
    assert cache.get(key, "netlist") is None
    assert cache.stats["corrupt"] == 1
    assert not os.path.exists(json_path)  # dropped, regeneration overwrites


def test_tampered_payload_checksum_rejected(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    json_path = cache.put(key, "netlist", {"x": 1})
    with open(json_path) as handle:
        entry = json.load(handle)
    entry["payload"]["x"] = 2
    with open(json_path, "w") as handle:
        json.dump(entry, handle)
    assert cache.get(key, "netlist") is None
    assert cache.stats["corrupt"] == 1


def test_clear_is_scoped_to_namespace(tmp_path):
    root = tmp_path / "shared-root"
    cache = ArtifactCache(root=str(root))
    cache.put(cache_key("netlist", ["g"], {}, "h"), "netlist", {"x": 1})
    bystander = root / "other-tool" / "data.json"
    bystander.parent.mkdir(parents=True)
    bystander.write_text("{}")

    assert cache.clear() == 1
    assert not os.path.exists(cache.path)
    assert bystander.exists()          # siblings untouched
    assert root.exists()               # the shared root itself untouched
    assert cache.clear() == 0          # idempotent


def test_invalid_namespace_rejected(tmp_path):
    for bad in ("", ".", "..", "a" + os.sep + "b"):
        with pytest.raises(ValueError):
            ArtifactCache(root=str(tmp_path), namespace=bad)


def test_info_counts_entries_and_kinds(tmp_path):
    cache = ArtifactCache(root=str(tmp_path / "store"))
    cache.put(cache_key("netlist", ["a"], {}, "h"), "netlist", {"x": 1})
    cache.put(cache_key("netlist", ["b"], {}, "h"), "netlist", {"x": 2})
    info = cache.info()
    assert info["entries"] == 2
    assert info["kinds"] == {"netlist": 2}
    assert info["bytes"] > 0
    assert info["stats"]["writes"] == 2


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
def test_cache_enabled_env_values():
    assert cache_enabled({})
    assert cache_enabled({"REPRO_CACHE": "1"})
    for value in ("0", "off", "FALSE", "no"):
        assert not cache_enabled({"REPRO_CACHE": value})


def test_cache_disabled_skips_reads_and_writes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    cache = ArtifactCache(root=str(tmp_path / "store"))
    key = cache_key("netlist", ["g"], {}, "h")
    assert cache.put(key, "netlist", {"x": 1}) is None
    assert cache.get(key, "netlist") is None
    assert not os.path.isdir(cache.path)
    assert cache.stats == {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}


def test_default_cache_root_env_override(monkeypatch):
    assert default_cache_root({"REPRO_CACHE_DIR": "/tmp/somewhere"}) == "/tmp/somewhere"
    assert default_cache_root({}).endswith(os.path.join(".cache", "repro-gpp"))


# ----------------------------------------------------------------------
# End-to-end: build_circuit through the disk cache
# ----------------------------------------------------------------------
def test_build_circuit_disk_cache_hit_is_bitwise(tmp_path):
    cold = build_circuit("KSA4")
    assert default_cache().stats["writes"] == 1

    suite._NETLIST_CACHE.clear()  # force the disk path
    warm = build_circuit("KSA4")
    assert default_cache().stats["hits"] == 1

    assert warm.num_gates == cold.num_gates
    assert [g.name for g in warm.gates] == [g.name for g in cold.gates]
    assert np.array_equal(warm.edge_array(), cold.edge_array())
    assert np.array_equal(warm.bias_vector_ma(), cold.bias_vector_ma())
    assert np.array_equal(warm.area_vector_um2(), cold.area_vector_um2())


def test_build_circuit_survives_corrupt_disk_entry(tmp_path):
    build_circuit("KSA4")
    key = netlist_cache_key("KSA4")
    cache = default_cache()
    json_path, _ = cache._entry_paths(key)
    with open(json_path, "w") as handle:
        handle.write("not json at all")

    suite._NETLIST_CACHE.clear()
    rebuilt = build_circuit("KSA4")  # regenerates instead of crashing
    assert rebuilt.num_gates > 0
    assert cache.stats["corrupt"] == 1
    assert cache.stats["writes"] == 2  # the fresh result was re-stored


def test_load_cached_netlist_rejects_stale_sidecar_arrays(tmp_path):
    library = default_library()
    netlist = build_circuit("KSA4")
    cache = default_cache()
    key = netlist_cache_key("KSA4")

    # Overwrite the entry with a wrong bias sidecar (stale solver vector).
    arrays = {
        "edges": np.asarray(netlist.edge_array()),
        "bias_ma": np.asarray(netlist.bias_vector_ma()) + 1.0,
        "area_um2": np.asarray(netlist.area_vector_um2()),
    }
    from repro.netlist.serialize import netlist_to_dict

    cache.put(key, "netlist", netlist_to_dict(netlist), arrays=arrays)
    assert load_cached_netlist(cache, key, library) is None
    assert cache.stats["corrupt"] == 1


def test_store_and_load_via_explicit_cache(tmp_path):
    library = default_library()
    netlist = build_circuit("KSA4", use_cache=False)
    cache = ArtifactCache(root=str(tmp_path / "explicit"))
    key = netlist_key(["kogge_stone_adder", {"width": 4}], {}, library)

    store_netlist(cache, key, netlist)
    loaded = load_cached_netlist(cache, key, library)
    assert loaded is not None
    assert np.array_equal(loaded.edge_array(), netlist.edge_array())


def test_cache_key_canonicalizes_numpy_scalars():
    # A width that arrives as np.int64 (e.g. from an array index or a
    # sweep over np.arange) must hit the same disk entry as a plain int.
    plain = cache_key("netlist", ["gen", {"width": 4}], {"opt": 1.5}, "h")
    assert cache_key("netlist", ["gen", {"width": np.int64(4)}], {"opt": 1.5}, "h") == plain
    assert cache_key("netlist", ["gen", {"width": 4}], {"opt": np.float64(1.5)}, "h") == plain
    assert cache_key("netlist", ["gen", {"width": np.uint8(4)}], {"opt": 1.5}, "h") == plain
    # ... while a genuinely different value still changes the key.
    assert cache_key("netlist", ["gen", {"width": np.int64(5)}], {"opt": 1.5}, "h") != plain

#!/usr/bin/env python
"""CI smoke test of the incremental (ECO) service route, over HTTP.

Boots ``repro-gpp serve`` as a real subprocess and proves the PATCH
contract end to end:

1. **Warm re-solve** — a KSA16 K=4 base job is solved and stored, then
   a 2-gate edit is PATCHed against its request key.  The eco result
   must come back ``mode="warm"`` with a cost that passes the quality
   guard against the carried-forward reference.
2. **Dedupe** — repeating the identical PATCH is answered from the
   result store (``outcome="cached"``, ``service.eco.cache_hits``).
3. **Empty diff** — PATCHing an identity diff returns the stored base
   payload *bitwise* and is counted as a cache hit
   (``service.eco.empty_diffs``).

Usage::

    PYTHONPATH=src python scripts/eco_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service.client import ServiceClient  # noqa: E402

READY_RE = re.compile(r"listening on (http://[\d.]+:\d+)")

#: Port-count-preserving cell swaps for the synthetic 2-gate edit.
CELL_SWAP = {
    "AND2": "OR2", "OR2": "AND2",
    "XOR2": "XNOR2", "XNOR2": "XOR2",
    "NAND2": "NOR2", "NOR2": "NAND2",
}


class ServerProcess:
    """``repro-gpp serve`` as a context-managed subprocess."""

    def __init__(self, *args, env=None):
        merged = dict(os.environ)
        merged.update(env or {})
        merged["PYTHONPATH"] = os.path.join(ROOT, "src")
        merged.setdefault("PYTHONUNBUFFERED", "1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=merged,
        )
        self.url = None
        for line in self.process.stdout:
            match = READY_RE.search(line)
            if match:
                self.url = match.group(1)
                break
        if self.url is None:
            raise RuntimeError("server exited before printing its ready line")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def two_gate_diff(circuit):
    """A canonical diff re-typing the first two swappable gates."""
    from repro.circuits.suite import build_circuit
    from repro.netlist.diff import netlist_diff
    from repro.netlist.library import default_library
    from repro.netlist.serialize import library_fingerprint, netlist_to_dict

    base = netlist_to_dict(build_circuit(circuit))
    edited = dict(base)
    edited["gates"] = [dict(gate) for gate in base["gates"]]
    swapped = 0
    for gate in edited["gates"]:
        if gate["cell"] in CELL_SWAP:
            gate["cell"] = CELL_SWAP[gate["cell"]]
            swapped += 1
            if swapped == 2:
                break
    if swapped < 2:
        raise RuntimeError(f"{circuit} has fewer than two swappable gates")
    edited["name"] = base["name"] + "_eco"
    return netlist_diff(base, edited, library_fingerprint(default_library()))


def empty_diff(circuit):
    from repro.circuits.suite import build_circuit
    from repro.netlist.diff import diff_netlists

    netlist = build_circuit(circuit)
    return diff_netlists(netlist, netlist)


def probe_eco(cache_dir):
    from repro import envcfg
    from repro.core.incremental import quality_ok

    request = {"circuit": "KSA16", "num_planes": 4, "seed": 2020}
    env = {"REPRO_CACHE_DIR": cache_dir}
    with ServerProcess("--workers", "2", env=env) as server:
        client = ServiceClient(server.url, timeout=120.0)

        base_job = client.submit(request)
        base_key = base_job["key"]
        client.wait(base_job["id"], timeout=600.0)
        base_raw = client.result(base_job["id"])["result"]
        check(base_raw.get("labels"), "base KSA16 K=4 job solved and stored")

        diff = two_gate_diff("KSA16")
        eco_job = client.eco_submit(base_key, {"diff": diff})
        if eco_job["state"] != "done":
            client.wait(eco_job["id"], timeout=600.0)
        eco_raw = client.result(eco_job["id"])["result"]
        info = eco_raw["eco"]
        check(info["mode"] == "warm",
              f"2-gate edit re-solved warm (region={info['region_gates']} gates)")
        eps = envcfg.resolve("REPRO_ECO_QUALITY_EPS")
        check(quality_ok(info["cost"], info["reference_cost"], eps),
              f"warm cost {info['cost']:.6f} passes the quality guard "
              f"(reference {info['reference_cost']:.6f}, eps={eps})")
        check(len(eco_raw["labels"]) == len(base_raw["labels"]),
              "eco result labels cover every gate of the edited netlist")

        repeat = client.eco_submit(base_key, {"diff": diff})
        check(repeat["outcome"] == "cached" and repeat["state"] == "done",
              "repeated identical PATCH answered from the result store")

        identity = client.eco_submit(base_key, {"diff": empty_diff("KSA16")})
        check(identity.get("eco", {}).get("empty_diff") is True,
              "identity diff recognized as an empty edit")
        if identity["state"] != "done":
            client.wait(identity["id"], timeout=120.0)
        identity_raw = client.result(identity["id"])["result"]
        check(
            json.dumps(identity_raw, sort_keys=True)
            == json.dumps(base_raw, sort_keys=True),
            "empty-diff PATCH returns the stored base payload bitwise",
        )

        metrics = client.metrics()["metrics"]
        eco_requests = metrics["service.eco.requests"]["value"]
        cache_hits = metrics["service.eco.cache_hits"]["value"]
        empty_diffs = metrics["service.eco.empty_diffs"]["value"]
        check(eco_requests >= 3 and cache_hits >= 2 and empty_diffs >= 1,
              f"service.eco.* counters tell the story (requests={eco_requests}, "
              f"cache_hits={cache_hits}, empty_diffs={empty_diffs})")


def main():
    with tempfile.TemporaryDirectory(prefix="repro-eco-smoke-") as cache_dir:
        print("== eco (PATCH) route ==")
        probe_eco(cache_dir)
    print("eco smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

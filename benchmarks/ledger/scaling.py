"""Scaling diagnostic: which layer breaks first as fabrics grow.

Not one of the workloads and not gated.  For generated KSA/MULT fabrics
from about 1.6k to about 2.7x10^4 gates (``--max-gates`` admits the
46k- and 82k-gate ones), each size in a fresh child
process, it calls the public functions a request passes through —
``synthesize``, ``netlist_to_dict``, ``validate_request``,
``request_key``, ``netlist_from_dict``, ``partition`` (batched and
multilevel) and ``evaluate_partition`` — and records per call the
seconds, the process ``VmHWM`` after it, and the ``tracemalloc`` peak of
a second, traced call.

Usage::

    python3 benchmarks/ledger/bench.py --scaling [--max-gates N] [--out FILE]
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

#: (generator, width, gates after synthesis; the last one estimated).
SIZES = (
    ("ksa", 32, 1_559),
    ("ksa", 64, 3_933),
    ("mult", 12, 6_274),
    ("mult", 16, 14_318),
    ("mult", 20, 27_258),
    ("mult", 24, 46_246),
    ("mult", 32, 82_000),
)
DEFAULT_MAX_GATES = 30_000
PLANES = 5
CHILD_TIMEOUT_S = 1800

LAYERS = (
    "synthesize", "netlist_to_dict", "validate_request", "request_key",
    "netlist_from_dict", "partition_batched", "partition_multilevel",
    "evaluate_partition",
)


def _vm_hwm_mb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def measure_size(kind, width):
    """Per-layer seconds and memory of one fabric (runs in the child)."""
    from repro import partition
    from repro.circuits.ksa import kogge_stone_adder
    from repro.circuits.multiplier import array_multiplier
    from repro.core.config import PartitionConfig
    from repro.metrics.report import evaluate_partition
    from repro.netlist.library import default_library
    from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
    from repro.service.api import request_key, validate_request
    from repro.synth.flow import SynthesisOptions, synthesize

    builder = kogge_stone_adder if kind == "ksa" else array_multiplier
    state = {}
    calls = {
        "synthesize": lambda: synthesize(
            builder(width, name=f"fabric-{kind}{width}"), options=SynthesisOptions())[0],
        "netlist_to_dict": lambda: netlist_to_dict(state["synthesize"]),
        "validate_request": lambda: validate_request(
            {"netlist": state["netlist_to_dict"], "num_planes": PLANES, "seed": 0}),
        "request_key": lambda: request_key(state["validate_request"]),
        "netlist_from_dict": lambda: netlist_from_dict(
            state["netlist_to_dict"], default_library()),
        "partition_batched": lambda: partition(
            state["netlist_from_dict"], PLANES, PartitionConfig(engine="batched"), seed=0),
        "partition_multilevel": lambda: partition(
            state["netlist_from_dict"], PLANES, PartitionConfig(engine="multilevel"),
            seed=0),
        "evaluate_partition": lambda: evaluate_partition(state["partition_batched"]),
    }
    layers = {}
    for name in LAYERS:
        started = time.perf_counter()
        state[name] = calls[name]()
        layers[name] = {"seconds": time.perf_counter() - started,
                        "vm_hwm_mb": _vm_hwm_mb()}
    # Traced calls last, so that they move no VmHWM reading above.
    for name in LAYERS:
        tracemalloc.start()
        calls[name]()
        layers[name]["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return {"kind": kind, "width": width,
            "gates": state["netlist_from_dict"].num_gates, "layers": layers}


def run(max_gates=None):
    """Measure every size up to ``max_gates``; one child process each."""
    max_gates = max_gates or DEFAULT_MAX_GATES
    rows = []
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scaling-", dir=WORK_ROOT) as cache:
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=cache)
        for kind, width, approx in SIZES:
            if approx > max_gates:
                continue
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), kind, str(width)],
                env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if child.returncode != 0:
                raise RuntimeError(f"{kind}{width} failed:\n{child.stderr}")
            rows.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return rows


def render(rows):
    header = f"{'fabric':8s} {'gates':>7s} " + " ".join(f"{n:>20s}" for n in LAYERS)
    lines = ["seconds per call", header]
    for row in rows:
        lines.append(f"{row['kind'] + str(row['width']):8s} {row['gates']:7d} " + " ".join(
            f"{row['layers'][n]['seconds']:20.4f}" for n in LAYERS))
    lines += ["", "tracemalloc peak MB of the call / VmHWM MB after it", header]
    for row in rows:
        lines.append(f"{row['kind'] + str(row['width']):8s} {row['gates']:7d} " + " ".join(
            f"{row['layers'][n]['tracemalloc_peak_mb']:11.1f}/{row['layers'][n]['vm_hwm_mb']:<8.1f}"
            for n in LAYERS))
    return "\n".join(lines)


def main(max_gates=None, out=None):
    rows = run(max_gates)
    print(render(rows))
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps({"scaling": rows}) + "\n")
    return 0


if __name__ == "__main__":
    print(json.dumps(measure_size(sys.argv[1], int(sys.argv[2]))))

"""Tests of the ledger's own code.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import measures  # noqa: E402
from spans import SpanRecorder, layer_calls, layer_self, outermost, self_times  # noqa: E402
from loadgen import Window  # noqa: E402
from stats import grouped_percentile, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- percentile helper ---------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) is not None
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) is not None
    assert percentile([], 0.5) is None


def test_percentile_is_a_window_mean():
    assert percentile([3.0] * 40, 0.5) == 3.0
    # 100 samples: ranks 45..54 average to 49.5 around the median.
    assert percentile(list(range(100)), 0.5) == pytest.approx(49.5)
    # Half the mass on each of two poll-grid points: the estimate sits
    # between them instead of snapping to one.
    assert 1.0 < percentile([1.0] * 50 + [2.0] * 50, 0.5) < 2.0


def test_grouped_percentile_is_the_median_of_group_percentiles():
    # Three groups of 100; the remainder of 50 joins the last one.
    values = [1.0] * 100 + [2.0] * 100 + [9.0] * 100 + [9.0] * 50
    assert grouped_percentile(values, 0.5, 100) == 2.0
    # A stall that slows one group moves the median by one group at most.
    assert grouped_percentile([1.0] * 200 + [50.0] * 100, 0.9, 100) == 1.0
    assert grouped_percentile(list(range(50)), 0.9, 100) is None


def test_end_to_end_takes_medians_over_windows():
    from loadgen import OpRecord

    records = [OpRecord(i, start=i * 0.1, end=i * 0.1 + 0.05) for i in range(100)]
    records[60].error = "refused"
    windows = [Window(0.0, 1.0, 25, cpu_s=2.0), Window(1.0, 2.0, 25, cpu_s=2.0),
               Window(2.0, 12.0, 25, cpu_s=20.0), Window(12.0, 13.0, 25, cpu_s=2.0)]
    e2e = measures.end_to_end(records, windows, 50.0, [3.0, 1.0, 2.0], [])
    # The stalled third window does not move the medians; the failed op
    # counts in its window's time, not in its ops.
    assert e2e["throughput_ops_s"] == (25.0, 4)
    assert e2e["cpu_s_per_op"] == (2.0 / 25, 4)
    assert e2e["latency_p50_s"] == (pytest.approx(0.05), 99)
    assert e2e["setup_s"] == (2.0, 3)


# -- self-time reducer ---------------------------------------------------

def _span(span_id, name, start, end, parent=None, **attrs):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, **attrs}


SYNTHETIC = [
    _span(1, "server.route", 0.0, 10.0),
    _span(2, "api.validate", 1.0, 4.0, parent=1),
    _span(3, "core.solve", 5.0, 9.0, parent=1),
    _span(4, "core.solve", 6.0, 7.0, parent=3),
    _span(5, "server.route", 20.0, 22.0),
]


def test_self_time_subtracts_direct_children():
    assert self_times(SYNTHETIC) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 2.0}


def test_layer_totals_and_outermost_calls():
    assert layer_self(SYNTHETIC) == {"server.route": 5.0, "api.validate": 3.0,
                                     "core.solve": 4.0}
    assert [span["id"] for span in outermost(SYNTHETIC)] == [1, 2, 3, 5]
    assert layer_calls(SYNTHETIC) == {"server.route": 2, "api.validate": 1,
                                      "core.solve": 1}
    # A window keeps spans that started inside it.
    assert layer_self(SYNTHETIC, window=(15.0, 30.0)) == {"server.route": 2.0}


def test_recorder_nests_on_one_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda x: x + 1, "inner", result_attrs=lambda r: {"r": r})
    with recorder.span("outer", op=7):
        assert inner(1) == 2
    by_name = {span["name"]: span for span in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["r"] == 2 and by_name["outer"]["op"] == 7


# -- op lists ------------------------------------------------------------

def _bodies(name, seed):
    plan = WORKLOADS[name].build(np.random.default_rng(seed), 24)
    return json.dumps([
        [op.body, op.check, op.ref]
        for op in plan.setup + plan.warmup + plan.ops
    ], sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_are_determined_by_the_seed(name, tmp_path, monkeypatch):
    from repro.cache import reset_default_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_cache()
    try:
        assert _bodies(name, 3) == _bodies(name, 3)
        assert _bodies(name, 3) != _bodies(name, 4)
    finally:
        reset_default_cache()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_window_sends_the_whole_mix(name):
    workload = WORKLOADS[name]
    ops = workload.build(np.random.default_rng(5), workload.count(1.0)).ops
    assert len(ops) % workload.window == 0

    def mix(window):
        return sorted(json.dumps({k: v for k, v in op.body.items() if k != "seed"},
                                 sort_keys=True) for op in window)

    if name != "hit-heavy":  # Zipf draws: the mix holds in expectation only
        first = mix(ops[:workload.window])
        for start in range(workload.window, len(ops), workload.window):
            assert mix(ops[start:start + workload.window]) == first


# -- BENCHMARK.json ------------------------------------------------------

def test_declaration_matches_the_code():
    declared = _declaration()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["command"][1] == "benchmarks/ledger/bench.py"
    assert 1 <= declared["run_seconds"] <= 60

    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    e2e, layers = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for metric in e2e + layers:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)

    as_declared = [(m["name"], m["unit"], m["better"]) for m in e2e]
    assert as_declared == [(m.name, m.unit, m.better) for m in measures.END_TO_END]
    as_declared = [(m["name"], m["unit"], m["better"]) for m in layers]
    assert as_declared == [(m.name, m.unit, m.better) for m in measures.LAYERS]


def test_every_layer_metric_maps_to_end_to_end_metrics_and_workloads():
    e2e = {metric.name for metric in measures.END_TO_END}
    for metric in measures.LAYERS:
        assert metric.moves and set(metric.moves) <= e2e, metric.name
        assert metric.active_on and set(metric.active_on) <= set(WORKLOADS), metric.name


def test_every_printed_metric_is_declared():
    declared = _declaration()
    result = {
        "workload": "hit-heavy", "trace": False, "correct": True,
        "attempted": 1, "failed": 0,
        "metrics": {m.name: (1.0, 1) for m in measures.END_TO_END},
        "layers": {m.name: 1.0 for m in measures.LAYERS},
    }
    line = json.loads(bench.final_line([result]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    line = json.loads(bench.final_line([dict(result, trace=True)]))
    assert list(line["metrics"]) == [m["name"] for m in declared["per_layer"]]


# -- compare -------------------------------------------------------------

def _runs(path, throughputs, i_comp=2.0):
    """One run per throughput, each with quality ``i_comp``."""
    with open(path, "w") as handle:
        for seed, value in enumerate(throughputs, 1):
            metrics = {m.name: (1.0, 1) for m in measures.END_TO_END}
            metrics["throughput_ops_s"] = (value, 1)
            metrics["i_comp_pct"] = (i_comp, 1)
            handle.write(json.dumps({"workload": "hit-heavy", "trace": False,
                                     "seed": seed, "metrics": metrics}) + "\n")
    return str(path)


def test_compare_flags_regressions_and_unresolved_spread(tmp_path, capsys):
    base = _runs(tmp_path / "a.jsonl", [100.0, 101.0, 99.0, 100.0])
    same = _runs(tmp_path / "b.jsonl", [100.5, 99.5, 100.0, 100.0])
    slow = _runs(tmp_path / "c.jsonl", [50.0, 51.0, 49.0, 50.0])
    noisy = _runs(tmp_path / "d.jsonl", [20.0, 200.0, 60.0, 400.0])
    assert bench.compare(base, same) == 0
    assert bench.compare(base, slow) == 1
    assert "regressed" in capsys.readouterr().out
    assert bench.compare(base, noisy) == 1
    assert "unresolved" in capsys.readouterr().out


def test_compare_holds_quality_to_its_bound(tmp_path, capsys):
    # The quality panel reads the same on every seed, so a 1% loss on
    # every run is past the 0.5% bound with no spread to hide in.
    base = _runs(tmp_path / "a.jsonl", [100.0] * 4, i_comp=2.0)
    same = _runs(tmp_path / "b.jsonl", [100.0] * 4, i_comp=2.0)
    worse = _runs(tmp_path / "c.jsonl", [100.0] * 4, i_comp=2.02)
    assert bench.compare(base, same) == 0
    assert bench.compare(base, worse) == 1
    assert "regressed" in capsys.readouterr().out


# -- smoke ---------------------------------------------------------------

def test_quick_smoke_run():
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--quick", "--seed", "7",
         "--workload", "hit-heavy", "--workload", "solve-mix"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["attempted"] == 2 * bench.QUICK_OPS and line["failed"] == 0

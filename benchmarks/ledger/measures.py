"""Metric declarations of the ledger and their computation from a pass.

End-to-end metrics are what a user of the service sees.  Throughput and
CPU per op are medians over the pass's windows, latency percentiles
medians over groups of at least :data:`GROUP_OPS` ops, so that a host
stall of a second moves one window, not the run.  Layer metrics split a
request by the repo module that spends the time; they come from client
records, ``/metrics`` counters and, for the ``ms`` ones, the spans of a
traced run (:mod:`traced_entry`).  ``*_per_op`` metrics count the timed
pass only; ``*_per_call`` metrics average every call the program
processes made, set-up included, so they exist on every workload
(``hit-heavy`` solves only during set-up).
"""

import math
import statistics
from collections import Counter
from dataclasses import dataclass

from spans import in_window, layer_calls, layer_self, outermost
from stats import grouped_percentile, percentile

#: A latency percentile is taken per group of at least this many
#: consecutive ops (whole windows), so that a p90 has ten samples beyond it.
GROUP_OPS = 100


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Layer metrics: the end-to-end metrics the layer moves.
    moves: tuple = ()
    #: Layer metrics: the workloads it is active on.
    active_on: tuple = ()


ALL = ("solve-mix", "hit-heavy", "fleet-solve")
SOLVING = ("solve-mix", "fleet-solve")

END_TO_END = (
    Metric("throughput_ops_s", "ops/s", "higher"),
    Metric("latency_p50_s", "s", "lower"),
    Metric("latency_p90_s", "s", "lower"),
    Metric("cpu_s_per_op", "s", "lower"),
    Metric("rss_peak_mb", "MB", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("d_le_1", "frac", "higher"),
    Metric("i_comp_pct", "%", "lower"),
)
_THROUGHPUT = ("throughput_ops_s", "latency_p50_s")
_CPU = ("cpu_s_per_op", "latency_p50_s")

LAYERS = (
    Metric("core.solve_ms_per_call", "ms", "lower", _THROUGHPUT, ALL),
    Metric("core.finalize_ms_per_call", "ms", "lower", _THROUGHPUT, ALL),
    Metric("core.iterations_per_op", "count", "lower", _THROUGHPUT, SOLVING),
    Metric("core.coarse_iterations_per_call", "count", "lower",
           ("setup_s",), ("solve-mix",)),
    Metric("netlist.load_ms_per_call", "ms", "lower", _CPU, ALL),
    Metric("metrics.eval_ms_per_call", "ms", "lower", _CPU, ALL),
    Metric("runner.dispatch_ms_per_call", "ms", "lower",
           ("throughput_ops_s",), ALL),
    Metric("runner.retries", "count", "lower", ("throughput_ops_s",), SOLVING),
    Metric("api.validate_ms_per_op", "ms", "lower", _CPU, ALL),
    Metric("api.key_ms_per_op", "ms", "lower", _CPU, ALL),
    Metric("jobs.submit_ms_per_op", "ms", "lower", ("throughput_ops_s",), ALL),
    Metric("server.route_self_ms_per_op", "ms", "lower",
           ("throughput_ops_s",), ALL),
    Metric("store.get_ms_per_call", "ms", "lower", ("throughput_ops_s",), ALL),
    Metric("store.put_ms_per_call", "ms", "lower", ("cpu_s_per_op",), ALL),
    Metric("store.hit_ratio", "ratio", "higher", ("throughput_ops_s",),
           ("hit-heavy",)),
    Metric("encode.ms_per_op", "ms", "lower", ("cpu_s_per_op",), ALL),
    Metric("http.transport_ms_per_op", "ms", "lower",
           ("throughput_ops_s", "latency_p50_s"), ALL),
    Metric("http.calls_per_op", "count", "lower", _CPU, ALL),
    Metric("http.req_kb_per_op", "KB", "lower", _CPU, ALL),
    Metric("http.resp_kb_per_op", "KB", "lower", _CPU, ALL),
    Metric("fleet.leases_per_op", "count", "lower", ("throughput_ops_s",),
           ("fleet-solve",)),
    Metric("fleet.requeues", "count", "lower", ("throughput_ops_s",),
           ("fleet-solve",)),
    Metric("unattributed_ms_per_op", "ms", "lower", ("latency_p50_s",), ALL),
)

#: Layer metrics reported beside the declared ones (in the human report
#: and ``--out`` records) but left out of the final result line: each
#: is zero on some workload, or a percentile short of samples there.
DETAIL = (
    "core.solve_ms_per_op", "core.finalize_ms_per_op",
    "netlist.load_ms_per_op", "netlist.dump_ms_per_op",
    "metrics.eval_ms_per_op", "runner.dispatch_ms_per_op", "store.get_ms_per_op",
    "store.put_ms_per_op", "http.poll_idle_ms_per_op", "http.poll_slack_ms_per_op",
    "client.latency_ms_p50", "client.latency_ms_p90", "jobs.queue_wait_ms_p50",
    "jobs.queue_wait_ms_p90", "jobs.run_ms_p50", "fleet.lease_ms_per_op",
    "fleet.complete_ms_per_op", "fleet.wire_ms_per_op",
)

#: Server routes a client op calls (fleet routes are the worker's).
CLIENT_ROUTES = ("submit", "job_status", "job_result")


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def quality(records):
    """``{"d_le_1", "i_comp_pct": (mean, samples)}`` over answers with a report."""
    scored = [r for r in records if r is not None and r.error is None
              and r.d_le_1 is not None]
    return {
        "d_le_1": (_mean([r.d_le_1 for r in scored]), len(scored)),
        "i_comp_pct": (_mean([r.i_comp_pct for r in scored]), len(scored)),
    }


def end_to_end(records, windows, rss_mb, setups, panel):
    """``{name: (value, samples)}`` of the end-to-end metrics.

    ``records`` and ``windows`` are the timed pass, ``setups`` the
    duration of each set-up, ``panel`` the set-up and warm-up answers the
    quality metrics are read from.  A failed op counts in its window's
    time, not in its ops, and adds no latency sample.
    """
    latencies = [r.service_latency for r in records if r.error is None]
    done, start = [], 0
    for window in windows:
        done.append(sum(1 for r in records[start:start + window.ops] if r.error is None))
        start += window.ops
    group = math.ceil(GROUP_OPS / windows[0].ops) * windows[0].ops
    return {
        "throughput_ops_s": (statistics.median(
            ok / w.seconds for ok, w in zip(done, windows)), len(windows)),
        "latency_p50_s": (grouped_percentile(latencies, 0.5, group), len(latencies)),
        "latency_p90_s": (grouped_percentile(latencies, 0.9, group), len(latencies)),
        "cpu_s_per_op": (statistics.median(
            w.cpu_s / max(1, ok) for ok, w in zip(done, windows)), len(windows)),
        "rss_peak_mb": (rss_mb, None),
        "setup_s": (statistics.median(setups), len(setups)),
        **quality(panel),
    }


def _ms(seconds):
    return None if seconds is None else 1000.0 * seconds


def _status_ms(records, first, last):
    """Per-op milliseconds between two status timestamps, where both exist."""
    return [
        1000.0 * (r.status[last] - r.status[first])
        for r in records
        if r.status.get(first) is not None and r.status.get(last) is not None
    ]


def client_layers(records):
    """Layer metrics every run has: client records alone."""
    done = [r for r in records if r.error is None]
    ops = max(1, len(done))
    solved = [r for r in done if r.outcome != "cached"]
    return {
        "store.hit_ratio": sum(1 for r in done if r.outcome == "cached") / ops,
        "http.calls_per_op": sum(r.calls for r in done) / ops,
        "http.req_kb_per_op": sum(r.req_bytes for r in done) / ops / 1024.0,
        "http.resp_kb_per_op": sum(r.resp_bytes for r in done) / ops / 1024.0,
        "http.poll_idle_ms_per_op": 1000.0 * sum(r.poll_s for r in done) / ops,
        "http.poll_slack_ms_per_op": 1000.0 * sum(r.slack_s for r in done) / ops,
        "client.latency_ms_p50": _ms(percentile([r.latency for r in done], 0.5)),
        "client.latency_ms_p90": _ms(percentile([r.latency for r in done], 0.9)),
        "unattributed_ms_per_op": 1000.0 * _mean(
            [r.latency - r.http_s - r.poll_s - r.decode_s for r in done]
        ),
        "jobs.queue_wait_ms_p50": percentile(
            _status_ms(solved, "submitted_at", "started_at"), 0.5),
        "jobs.queue_wait_ms_p90": percentile(
            _status_ms(solved, "submitted_at", "started_at"), 0.9),
        "jobs.run_ms_p50": percentile(
            _status_ms(solved, "started_at", "finished_at"), 0.5),
    }


def span_layers(records, window, processes, client_spans, counters):
    """Layer metrics of a traced run.

    ``processes`` holds one span list per program process, ``window`` is
    the timed pass, ``counters`` the server's ``/metrics`` counters.
    """
    ops = max(1, sum(1 for r in records if r.error is None))
    per_op, life, calls = Counter(), Counter(), Counter()
    inclusive = Counter()
    extra = Counter()
    for spans in [*processes, client_spans]:
        per_op.update(layer_self(spans, window))
        life.update(layer_self(spans))
        calls.update(layer_calls(spans))
        for span in spans:
            if not in_window(span, window):
                continue
            duration = span["end"] - span["start"]
            if span["name"] == "client.http":
                inclusive["client.http"] += duration
            elif span["name"] == "server.route" and span.get("route") in CLIENT_ROUTES:
                inclusive["server.route"] += duration
            elif span["name"] == "fleet.lease":
                extra["granted"] += span.get("granted", 0)
            elif span["name"] == "runner.execute_job" and span.get("error"):
                extra["retries"] += 1
        for span in outermost(spans):
            if span["name"] != "core.solve":
                continue
            if in_window(span, window):
                extra["iterations"] += span.get("iterations", 0)
            if span.get("coarse_iterations"):
                extra["coarse_iterations"] += span["coarse_iterations"]
                extra["multilevel_calls"] += 1

    def ms_per_op(*layers):
        return 1000.0 * sum(per_op[layer] for layer in layers) / ops

    def ms_per_call(layer):
        return 1000.0 * life[layer] / calls[layer] if calls[layer] else 0.0

    return {
        "core.solve_ms_per_call": ms_per_call("core.solve"),
        "core.finalize_ms_per_call": ms_per_call("core.finalize"),
        "core.iterations_per_op": extra["iterations"] / ops,
        "core.coarse_iterations_per_call": (
            extra["coarse_iterations"] / extra["multilevel_calls"]
            if extra["multilevel_calls"] else 0.0),
        "netlist.load_ms_per_call": ms_per_call("netlist.load"),
        "metrics.eval_ms_per_call": ms_per_call("metrics.eval"),
        "runner.dispatch_ms_per_call": ms_per_call("runner.run_jobs"),
        "runner.retries": float(extra["retries"]),
        "api.validate_ms_per_op": ms_per_op("api.validate"),
        "api.key_ms_per_op": ms_per_op("api.key"),
        "jobs.submit_ms_per_op": ms_per_op("jobs.submit"),
        "server.route_self_ms_per_op": ms_per_op("server.route"),
        "store.get_ms_per_call": ms_per_call("store.get"),
        "store.put_ms_per_call": ms_per_call("store.put"),
        "encode.ms_per_op": ms_per_op("encode"),
        "http.transport_ms_per_op": 1000.0 * (
            inclusive["client.http"] - inclusive["server.route"]) / ops,
        "fleet.leases_per_op": extra["granted"] / ops,
        "fleet.requeues": float(counters.get("fleet.requeues", {}).get("value", 0)),
        "core.solve_ms_per_op": ms_per_op("core.solve"),
        "core.finalize_ms_per_op": ms_per_op("core.finalize"),
        "netlist.load_ms_per_op": ms_per_op("netlist.load"),
        "netlist.dump_ms_per_op": ms_per_op("netlist.dump"),
        "metrics.eval_ms_per_op": ms_per_op("metrics.eval"),
        "runner.dispatch_ms_per_op": ms_per_op("runner.run_jobs"),
        "store.get_ms_per_op": ms_per_op("store.get"),
        "store.put_ms_per_op": ms_per_op("store.put"),
        "fleet.lease_ms_per_op": ms_per_op("fleet.lease"),
        "fleet.complete_ms_per_op": ms_per_op("fleet.complete"),
        "fleet.wire_ms_per_op": ms_per_op("fleet.wire"),
    }

#!/usr/bin/env python3
"""The performance ledger: one command, three workloads, every metric.

Runs ``repro-gpp serve`` (plus a fleet worker where needed) as real
subprocesses built from this checkout's ``src``, drives each workload
from one closed-loop client, checks every answer, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Usage::

    python3 benchmarks/ledger/bench.py --seed 2020 [--workload NAME ...]
        [--seconds S] [--trace 0|1] [--traced] [--out FILE] [--quick]
    python3 benchmarks/ledger/bench.py compare A.jsonl B.jsonl
    python3 benchmarks/ledger/bench.py --scaling [--max-gates N]

``--trace 1`` runs the program under the span-recording launcher and
reports the per-layer metrics; ``--traced`` runs each workload both ways
and adds the tracing overhead.  ``--out`` appends one JSON record per
workload run; ``compare`` reads two such files.  The exit code is
non-zero when any answer is wrong or any op failed.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (program caches, span files); removed after.
WORK_ROOT = os.path.join(HERE, ".work")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SECONDS = 20
QUICK_OPS = 5
#: Set-ups per run; ``setup_s`` is their median.  The programs of the
#: last one serve the timed pass.
SETUPS = 3


def _declared_seconds():
    try:
        with open(DECLARATION) as handle:
            return json.load(handle)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return DEFAULT_SECONDS


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

class Checker:
    """Tallies the correctness checks of one run.

    Hits are compared as they arrive; answers to replay are kept and
    compared with an in-process solve by :meth:`finish` once the programs
    stopped.
    """

    def __init__(self, expected):
        self.expected = expected
        self.kept = {}
        self.passed = {}
        self.failed = {}
        self.mismatches = []

    def tally(self, check, ok, detail=""):
        bucket = self.passed if ok else self.failed
        bucket[check] = bucket.get(check, 0) + 1
        if not ok and len(self.mismatches) < 5:
            self.mismatches.append(f"{check}: {detail}")

    def on_result(self, op, record, raw):
        if raw is None:
            return
        if op.check == "replay":
            self.kept[op.index] = (op, raw)
        elif op.check == "hit":
            self.tally("hit", record.outcome == "cached" and raw == self.expected[op.ref],
                       f"op {op.index} ({record.outcome})")

    def finish(self):
        """Replay the kept ops in-process and compare bitwise."""
        from repro.harness.checkpoint import payload_to_jsonable
        from repro.harness.runner import execute_job
        from repro.service.api import request_to_job, validate_request

        for op, raw in self.kept.values():
            job = request_to_job(validate_request(op.body))
            local = json.loads(json.dumps(payload_to_jsonable(execute_job(job))))
            self.tally("replay", local == raw, f"op {op.index}")

    @property
    def ok(self):
        return not self.failed


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

def _setup(plan, cache, trace_prefix, recorder):
    """Start the programs and run set-up plus warm-up through the API.

    Returns ``(url, procs, expected, panel)``: ``expected`` maps set-up
    labels to their answers, ``panel`` holds the records of the set-up
    and warm-up ops the program solved (not read from its store).
    """
    from loadgen import run_pass, start_programs, stop_programs

    url, procs = start_programs(cache, fleet=plan.fleet, spans_prefix=trace_prefix)
    try:
        answers, records = {}, []

        def keep(op, _record, raw):
            if op.label is not None:
                answers[op.label] = raw

        for phase, ops in (("set-up", plan.setup), ("warm-up", plan.warmup)):
            done, _ = run_pass(url, ops, on_result=keep, recorder=recorder)
            _require(done, phase)
            records += done
    except BaseException:
        stop_programs(procs)
        raise
    panel = [record for record in records if record.outcome != "cached"]
    return url, procs, answers, panel


def _require(records, phase):
    errors = [r.error for r in records if r.error]
    if errors:
        raise RuntimeError(f"{phase} op failed: {errors[0]}")


def run_workload(name, seed, seconds, trace=False, quick=False):
    """Run one workload; returns its result record.

    A run generates its inputs, sets up :data:`SETUPS` times (once when
    traced or quick), each time on fresh programs and a fresh store, then
    times one pass on the programs of the last set-up.
    """
    import numpy as np

    import loadgen
    from probe import calibrate
    from repro.cache import default_cache, reset_default_cache, store_netlist
    from repro.circuits.suite import build_circuit, netlist_cache_key
    from spans import SpanRecorder
    from workloads import MIN_OPS, WORKLOADS

    loadgen.install_meter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    procs = []
    try:
        netlists = os.path.join(work, "netlists")
        os.environ["REPRO_CACHE_DIR"] = netlists
        reset_default_cache()

        started = time.perf_counter()
        workload = WORKLOADS[name]
        plan = workload.build(np.random.default_rng(seed),
                              QUICK_OPS if quick else workload.count(seconds))
        for circuit in plan.circuits:  # the programs load these from disk
            store_netlist(default_cache(), netlist_cache_key(circuit),
                          build_circuit(circuit))
        gen_s = time.perf_counter() - started
        host = calibrate()

        recorder = SpanRecorder() if trace else None
        prefix = os.path.join(work, "spans") if trace else None
        setups = []
        for attempt in range(1 if trace or quick else SETUPS):
            loadgen.stop_programs(procs)
            cache = os.path.join(work, f"cache{attempt}")
            shutil.copytree(netlists, cache)
            started = time.perf_counter()
            url, procs, expected, panel = _setup(plan, cache, prefix, recorder)
            setups.append(time.perf_counter() - started)

        checker = Checker(expected)
        pids = [proc.pid for proc in procs]
        rss = []

        def cpu(done):
            # Memory is read at a fixed op count, which every pass reaches:
            # the job table grows with each op, and a pass's op count
            # varies with the host's speed.
            if done >= MIN_OPS and not rss:
                rss.append(max(loadgen.peak_rss_mb(pid) for pid in pids))
            return sum(loadgen.cpu_seconds(pid) for pid in pids)

        records, windows = loadgen.run_pass(
            url, plan.ops, window=QUICK_OPS if quick else workload.window,
            seconds=None if quick else seconds, min_ops=0 if quick else MIN_OPS,
            cpu=cpu, on_result=checker.on_result, recorder=recorder,
        )
        rss_mb = rss[0] if rss else max(loadgen.peak_rss_mb(pid) for pid in pids)
        counters = loadgen.MeteredClient(url).metrics()["metrics"]
        codes = [proc.stop() for proc in procs]
        checker.finish()
        spans = [
            path for path in (f"{prefix}-worker.jsonl", f"{prefix}-serve.jsonl")
            if trace and os.path.exists(path)
        ]
        return _result(
            name, seed, seconds, checker, records, windows,
            measured={"rss_mb": rss_mb, "setups": setups, "panel": panel,
                      "counters": counters, "spans": spans, "recorder": recorder},
            meta={"gen_s": gen_s, "setup_s_each": setups,
                  "program_exit_codes": codes, "host_calibration": host},
        )
    finally:
        loadgen.stop_programs(procs)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            os.rmdir(WORK_ROOT)


def _deciles(values):
    ordered = sorted(values)
    return [ordered[min(len(ordered) - 1, len(ordered) * tenth // 10)]
            for tenth in range(11)] if ordered else []


def _result(name, seed, seconds, checker, records, windows, measured, meta):
    """The result record of one run."""
    import measures
    from spans import read_spans

    e2e = measures.end_to_end(records, windows, measured["rss_mb"],
                              measured["setups"], measured["panel"])
    layers = measures.client_layers(records)
    if measured["recorder"] is not None:
        layers.update(measures.span_layers(
            records, (windows[0].start, windows[-1].end),
            [read_spans(path)[1] for path in measured["spans"]],
            measured["recorder"].spans, measured["counters"]))
    failed = [r for r in records if r.error]
    return {
        "workload": name,
        "seed": seed,
        "trace": measured["recorder"] is not None,
        "seconds": seconds,
        "correct": checker.ok and not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": e2e,
        "layers": layers,
        "checks": {"passed": checker.passed, "failed": checker.failed,
                   "mismatches": checker.mismatches,
                   "errors": [r.error for r in failed[:5]]},
        "meta": {
            **meta,
            "timed_s": windows[-1].end - windows[0].start,
            "windows": len(windows),
            "window_s": [w.seconds for w in windows],
            "window_cpu_s": [w.cpu_s for w in windows],
            "window_steal_s": [w.steal_s for w in windows],
            "latency_deciles_s": _deciles([r.latency for r in records if not r.error]),
            "pass_quality": measures.quality(records),
            "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        },
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e5:
        return f"{value:.4f}"
    return f"{value:.4e}"


def result_metrics(result):
    """``{name: {"value", "unit"}}`` of the declared metrics of a run."""
    import measures

    if result["trace"]:
        return {m.name: {"value": result["layers"].get(m.name), "unit": m.unit}
                for m in measures.LAYERS}
    return {m.name: {"value": result["metrics"][m.name][0], "unit": m.unit}
            for m in measures.END_TO_END}


def print_report(result):
    """Every metric by name and unit."""
    import measures

    mode = "traced" if result["trace"] else "untraced"
    meta = result["meta"]
    host = meta["host_calibration"]
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']} s, {mode}) ==")
    print(f"  ops {result['attempted']} in {meta['windows']} windows timed in "
          f"{meta['timed_s']:.2f} s, failed {result['failed']}, gen "
          f"{meta['gen_s']:.2f} s, set-ups "
          f"{', '.join(f'{s:.2f}' for s in meta['setup_s_each'])} s, host loop "
          f"{host['python_ms']:.3f} ms python + {host['numpy_ms']:.3f} ms numpy")
    print("  n: windows for throughput and CPU, ops for latency, set-ups for setup_s")
    for metric in measures.END_TO_END:
        value, samples = result["metrics"][metric.name]
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {metric.name:32s} {_fmt(value):>12s} {metric.unit}{note}")
    for metric, (value, samples) in meta["pass_quality"].items():
        print(f"  {'pass.' + metric:32s} {_fmt(value):>12s}   (n={samples}, "
              f"timed answers; not a declared metric)")
    units = {m.name: m.unit for m in measures.LAYERS}
    names = ["client.latency_ms_p50", "client.latency_ms_p90"]
    if result["trace"]:
        names = [m.name for m in measures.LAYERS] + list(measures.DETAIL)
    for name in names:
        print(f"  {name:32s} {_fmt(result['layers'].get(name)):>12s} "
              f"{units.get(name, 'ms')}")
    checks = result["checks"]
    summary = ", ".join(
        f"{name} {checks['passed'].get(name, 0)}/"
        f"{checks['passed'].get(name, 0) + checks['failed'].get(name, 0)}"
        for name in sorted(set(checks["passed"]) | set(checks["failed"]))
    ) or "none"
    print(f"  checks: {summary}; correct {result['correct']}")
    for line in checks["mismatches"] + checks["errors"]:
        print(f"    ! {line}")


def final_line(results):
    """The one-line JSON result of the invocation."""
    metrics = {}
    for result in results:
        for name, entry in result_metrics(result).items():
            key = name if len(results) == 1 else f"{result['workload']}:{name}"
            metrics[key] = entry
    return json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def load_runs(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _series(runs):
    """``{(workload, trace, metric): [values]}`` of a result set."""
    series = {}
    for run in runs:
        for name, entry in result_metrics(run).items():
            if entry["value"] is not None:
                key = (run["workload"], run["trace"], name)
                series.setdefault(key, []).append(entry["value"])
    return series


def _worse(sign, a, b):
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == b:
        return 0.0
    return sign * (b - a) / abs(a) if a else sign * math.copysign(math.inf, b - a)


def _verdict(a, b, sign, bound):
    """``(delta, verdict)`` of one metric of one workload.

    The delta is between the medians of all runs; the verdict is
    ``unresolved`` when either side's interquartile spread exceeds the
    bound.  The quality metrics read the same for every seed, so their
    spread is 0 and any change beyond their bound is a verdict.
    """
    from stats import quartiles, spread

    delta = _worse(sign, quartiles(a)[1], quartiles(b)[1])
    if bound is None:
        return delta, "-"
    if max(spread(a), spread(b)) > bound:
        return delta, "unresolved"
    if delta > bound:
        return delta, "regressed"
    if delta < -bound:
        return delta, "improved"
    return delta, "ok" if delta else "ok (equal)"


def compare(path_a, path_b, declaration=DECLARATION):
    """Print both sides of every metric; returns the number of failures."""
    from stats import quartiles

    with open(declaration) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    directions = {**{m["name"]: m["better"] for m in declared["per_layer"]},
                  **{name: m["better"] for name, m in bounds.items()}}
    side_a, side_b = _series(load_runs(path_a)), _series(load_runs(path_b))
    failures = 0
    print(f"{'workload':14s} {'metric':32s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'delta':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(side_a) & set(side_b)):
        workload, _trace, name = key
        qa, qb = quartiles(side_a[key]), quartiles(side_b[key])
        sign = 1.0 if directions.get(name) == "lower" else -1.0
        bound = bounds[name]["bound"] if name in bounds else None
        worse, verdict = _verdict(side_a[key], side_b[key], sign, bound)
        if verdict in ("regressed", "unresolved"):
            failures += 1
        print(f"{workload:14s} {name:32s} "
              f"{_fmt(qa[1]):>10s} [{_fmt(qa[0])}, {_fmt(qa[2])}] "
              f"{_fmt(qb[1]):>10s} [{_fmt(qb[0])}, {_fmt(qb[2])}] "
              f"{100 * worse:+7.2f}% "
              f"{'-' if bound is None else f'{100 * bound:g}%':>6s}  {verdict}")
    return failures


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Performance ledger of the partitioning service.")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="seed of the generated inputs (default 2020)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start no new window of the timed pass after this "
                        "long (default run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="run each workload untraced and traced, and "
                        "report the tracing overhead")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload run")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke mode: {QUICK_OPS} timed ops")
    parser.add_argument("--scaling", action="store_true",
                        help="per-layer scaling diagnostic (not a workload)")
    parser.add_argument("--max-gates", type=int, default=None,
                        help="largest fabric of --scaling")
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through the clean-up of a run


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return 1 if compare(argv[1], argv[2]) else 0

    args = parse_args(argv)
    if args.scaling:
        import scaling

        return scaling.main(max_gates=args.max_gates, out=args.out)

    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _declared_seconds()
    modes = (False, True) if args.traced else (bool(args.trace),)
    # One CPU for the benchmark and the programs it starts (they inherit
    # it).  One closed-loop client runs one request at a time, so a
    # second CPU adds no parallelism, only hand-offs between CPUs; on a
    # shared 2-vCPU host each such hand-off can wait for the hypervisor,
    # which then steals a third of the time and halves hit-heavy.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    results = []
    for name in names:
        runs = {trace: run_workload(name, args.seed, seconds, trace=trace,
                                    quick=args.quick)
                for trace in modes}
        for result in runs.values():
            print_report(result)
        if args.traced:
            plain = runs[False]["metrics"]["throughput_ops_s"][0]
            overhead = plain - runs[True]["metrics"]["throughput_ops_s"][0]
            runs[True]["layers"]["trace.overhead_ops_s"] = overhead
            print(f"  trace.overhead_ops_s {overhead:.4f} ops/s "
                  f"({100 * overhead / plain:+.1f}% of untraced throughput)")
        if args.out:
            with open(args.out, "a") as handle:
                for result in runs.values():
                    handle.write(json.dumps(result) + "\n")
        results.extend(runs.values())
    print(final_line(results))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

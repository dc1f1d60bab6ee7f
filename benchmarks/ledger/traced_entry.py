"""Start ``repro-gpp serve`` or ``repro-gpp worker`` with span recording.

Usage (``src`` on ``PYTHONPATH``)::

    python benchmarks/ledger/traced_entry.py SPANS.jsonl serve --port 0 ...
    python benchmarks/ledger/traced_entry.py SPANS.jsonl worker --coordinator URL

Public entry points are wrapped where they are called: a name bound by
``from x import y`` is patched in the module that calls it, a method on
its class.  Then ``repro.harness.cli.main`` runs the command unchanged.
Spans stay in memory and are written to ``SPANS.jsonl`` when the command
returns — after SIGTERM for ``serve`` (its graceful drain), after SIGTERM
or SIGINT for ``worker``.
"""

import signal
import sys

from spans import SpanRecorder


def _key_arg(args, _kwargs):
    return {"key": args[1]}


def _returned_key(key):
    return {"key": key}


def _iterations(traces):
    traces = list(traces)
    return {
        "iterations": sum(int(trace.iterations) for trace in traces),
        "coarse_iterations": sum(
            int(getattr(trace, "coarse_iterations", 0) or 0) for trace in traces
        ),
    }


def _store_hit(entry):
    return {"hit": entry is not None}


def _granted(leases):
    return {"granted": len(leases)}


def _route(name):
    return lambda _args, _kwargs: {"route": name}


#: PartitionService methods the HTTP handler dispatches to.
ROUTES = (
    "submit", "sweep_submit", "job_status", "job_list",
    "job_result", "job_cancel", "job_events", "health", "fleet_lease",
    "fleet_heartbeat", "fleet_complete", "fleet_workers", "metrics_payload",
    "metrics_exposition", "trace_export",
)


def install(recorder):
    """Patch every traced entry point; returns how many were wrapped."""
    import repro.circuits.suite as suite
    import repro.core.megabatch as core_megabatch
    import repro.core.multilevel as multilevel
    import repro.core.partitioner as partitioner
    import repro.fleet.coordinator as coordinator
    import repro.fleet.worker as worker
    import repro.harness.megabatch as harness_megabatch
    import repro.harness.runner as runner
    import repro.metrics.report as report
    import repro.netlist.serialize as serialize
    import repro.service.jobs as jobs
    import repro.service.server as server
    import repro.service.store as store

    patches = [
        (server, "validate_request", "api.validate", None, None),
        (server, "request_key", "api.key", None, _returned_key),
        (jobs, "request_to_job", "api.to_job", None, None),
        (jobs, "run_jobs", "runner.run_jobs", None, None),
        (worker, "run_jobs", "runner.run_jobs", None, None),
        (runner, "execute_job", "runner.execute_job", None, None),
        (jobs, "payload_to_jsonable", "encode", None, None),
        (store, "payload_to_jsonable", "encode", None, None),
        (worker, "payload_to_jsonable", "encode", None, None),
        (coordinator, "payload_from_jsonable", "encode", None, None),
        (suite, "build_circuit", "netlist.load", None, None),
        (serialize, "netlist_from_dict", "netlist.load", None, None),
        (serialize, "netlist_to_dict", "netlist.dump", None, None),
        (partitioner, "minimize_assignment_batch", "core.solve", None, _iterations),
        (multilevel, "minimize_assignment_batch", "core.solve", None, _iterations),
        (core_megabatch, "minimize_assignment_batch", "core.solve", None, _iterations),
        (multilevel, "minimize_assignment_multilevel", "core.solve", None, _iterations),
        (partitioner, "finalize_traces", "core.finalize", None, None),
        (core_megabatch, "finalize_traces", "core.finalize", None, None),
        (harness_megabatch, "partition_packed", "core.packed", None, None),
        (report, "evaluate_partition", "metrics.eval", None, None),
        (coordinator, "job_to_wire", "fleet.wire", None, None),
        (worker, "job_from_wire", "fleet.wire", None, None),
        (jobs.JobManager, "submit", "jobs.submit", _key_arg, None),
        (store.ResultStore, "get", "store.get", _key_arg, _store_hit),
        (store.ResultStore, "get_with_meta", "store.get", _key_arg, _store_hit),
        (store.ResultStore, "put", "store.put", _key_arg, None),
        (coordinator.FleetCoordinator, "lease", "fleet.lease", None, _granted),
        (coordinator.FleetCoordinator, "complete", "fleet.complete", None, None),
        (coordinator.FleetCoordinator, "heartbeat", "fleet.heartbeat", None, None),
    ]
    patches += [
        (server.PartitionService, name, "server.route", _route(name), None)
        for name in ROUTES
    ]
    for owner, attr, name, call_attrs, result_attrs in patches:
        original = getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(original, name, call_attrs, result_attrs))
    return len(patches)


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] not in ("serve", "worker"):
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    if command[0] == "worker":
        # The worker command stops cleanly on KeyboardInterrupt only.
        signal.signal(signal.SIGTERM, _interrupt)
    from repro.harness.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        recorder.dump(spans_path, role=command[0])


if __name__ == "__main__":
    sys.exit(main())

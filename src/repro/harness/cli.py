"""``repro-gpp`` — command-line front end.

Subcommands::

    repro-gpp suite                      # list reconstructed benchmarks
    repro-gpp partition KSA8 -k 5        # partition one circuit
    repro-gpp partition my.def -k 5      # ... or any DEF file
    repro-gpp eco BASE EDITED -k 5       # incremental ECO re-partition
    repro-gpp sweep KSA8 -k 3,4,5        # K x weight Pareto sweep + energy
    repro-gpp table1 [--method greedy]   # regenerate Table I
    repro-gpp table2                     # regenerate Table II
    repro-gpp table3                     # regenerate Table III
    repro-gpp figure1 KSA4 -k 5          # Fig. 1 floorplan
    repro-gpp convergence KSA8 -k 5      # convergence figure
    repro-gpp convergence-report KSA8    # per-iteration F1..F4 telemetry
    repro-gpp cache info                 # on-disk artifact cache status
    repro-gpp cache clear                # drop the repro cache namespace
    repro-gpp serve --trace-requests     # HTTP service with deep tracing
    repro-gpp obs report TRACE.jsonl     # per-request span waterfall
    repro-gpp obs events events.jsonl    # pretty-print a job event log

The table subcommands accept ``--jobs N`` to fan the independent
per-circuit solves out over a process pool (results are
bitwise-identical to ``--jobs 1``; see docs/performance.md).

Observability (see docs/observability.md): every partitioning
subcommand accepts ``--trace FILE`` (write a JSONL trace with spans,
metrics and per-iteration solver telemetry) and ``--profile`` (print
span-timing and metrics tables after the command).  The ``REPRO_TRACE``
environment variable enables the same capture without flags; when its
value is a path, the trace is written there.
"""

import argparse
import os
import signal
import sys

from repro import obs
from repro.circuits.suite import PAPER_TABLE1, SUITE_NAMES, build_circuit
from repro.core.config import ENGINES, PartitionConfig
from repro.harness import figures, tables
from repro.harness.formatting import ascii_table, percent
from repro.metrics.report import evaluate_partition
from repro.netlist.library import default_library
from repro.parsers.def_parser import parse_def
from repro.recycling.verify import plan_recycling, verify_recycling
from repro.utils.errors import ReproError


def _load_netlist(source):
    """Resolve a CLI circuit argument: suite name, DEF or netlist JSON."""
    if source in SUITE_NAMES:
        return build_circuit(source)
    if os.path.exists(source):
        with open(source) as handle:
            text = handle.read()
        if text.lstrip().startswith("{"):
            import json

            from repro.netlist.serialize import netlist_from_dict

            try:
                data = json.loads(text)
            except ValueError as error:
                raise ReproError(f"{source}: invalid JSON: {error}") from None
            return netlist_from_dict(data, library=default_library())
        return parse_def(text, default_library(), filename=source)
    raise ReproError(
        f"{source!r} is neither a benchmark name ({', '.join(SUITE_NAMES)}) "
        "nor an existing DEF or netlist-JSON file"
    )


def _add_common(parser):
    parser.add_argument("-k", "--planes", type=int, default=5, help="number of ground planes")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--method",
        choices=sorted(tables.PARTITION_METHODS),
        default="gradient",
        help="partitioning algorithm",
    )
    parser.add_argument("--refine", action="store_true", help="greedy post-refinement")
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="batched",
        help="gradient solver engine (multilevel = coarse-to-fine warm start)",
    )
    _add_obs(parser)


def _positive_int(value):
    """argparse type for ``--jobs``/``--retries``-style counts.

    Rejecting bad values here (instead of deep inside the executor)
    turns ``--jobs 0`` into a one-line usage error.
    """
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return parsed


def _nonnegative_int(value):
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return parsed


def _positive_float(value):
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {value!r}")
    return parsed


def _int_list(value):
    """argparse type for comma-separated integer grids (``-k 3,4,5``)."""
    try:
        parsed = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None
    if not parsed:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {value!r}")
    return parsed


def _float_list(value):
    """argparse type for comma-separated number grids (``--ratios 0.2,1,4``)."""
    try:
        parsed = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None
    if not parsed:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {value!r}")
    return parsed


def _add_jobs(parser):
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes (default: REPRO_JOBS env, else min(cpus, 8); "
        "1 = run inline; results identical for any value)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit (default: REPRO_JOB_TIMEOUT env, else "
        "unlimited); a timed-out job is retried, see docs/robustness.md",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="retries per failed job with exponential backoff "
        "(default: REPRO_RETRIES env, else 2)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="stream completed job results to a JSONL checkpoint",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: skip jobs already completed in the "
        "checkpoint file (rows stay bitwise identical)",
    )


def _run_opts(args):
    """The run_jobs pass-through kwargs of a table subcommand."""
    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint FILE")
    return {
        "timeout": args.timeout,
        "retries": args.retries,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
    }


def _print_run_summary(file=None):
    """One stderr line when the run retried, resumed or skipped corrupt
    checkpoint lines — silent for a plain clean run."""
    from repro.harness.runner import last_report

    report = last_report()
    if report is None:
        return
    if report.retries or report.from_checkpoint or report.checkpoint_corrupt_lines:
        print(report.summary(), file=file if file is not None else sys.stderr)


def _add_obs(parser):
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL observability trace (spans, metrics, solver telemetry)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print span-timing and metrics tables after the command",
    )


def _cmd_suite(_args):
    headers = ["Circuit", "Gates", "Conns", "B_cir mA", "A_cir mm2", "paper gates"]
    rows = []
    for name in SUITE_NAMES:
        netlist = build_circuit(name)
        rows.append([
            name, netlist.num_gates, netlist.num_connections,
            f"{netlist.total_bias_ma:.2f}", f"{netlist.total_area_mm2:.4f}",
            PAPER_TABLE1[name].gates,
        ])
    print(ascii_table(headers, rows, title="reconstructed benchmark suite"))
    return 0


def _cmd_partition(args):
    netlist = _load_netlist(args.circuit)
    weights = {
        name: value
        for name, value in (("c1", getattr(args, "c1", None)), ("c2", getattr(args, "c2", None)),
                            ("c3", getattr(args, "c3", None)), ("c4", getattr(args, "c4", None)))
        if value is not None
    }
    result = tables._partition_with(
        args.method, netlist, args.planes,
        config=PartitionConfig(engine=args.engine, **weights),
        seed=args.seed, refine=args.refine,
    )
    report = evaluate_partition(result)
    if getattr(args, "save", None):
        from repro.harness.io import save_partition

        save_partition(result, args.save)
        print(f"partition saved to {args.save}")
    if getattr(args, "json", False):
        import json

        from repro.harness.io import report_to_dict

        print(json.dumps(report_to_dict(report), indent=2))
        return 0
    headers = ["metric", "value"]
    rows = [
        ["circuit", report.circuit],
        ["planes", report.num_planes],
        ["gates", report.num_gates],
        ["connections", report.num_connections],
        ["d<=1", percent(report.frac_d_le_1)],
        ["d<=2", percent(report.frac_d_le_2)],
        ["d<=K/2", percent(report.frac_d_le_half_k)],
        ["B_cir", f"{report.b_cir_ma:.2f} mA"],
        ["B_max", f"{report.b_max_ma:.2f} mA"],
        ["I_comp", f"{report.i_comp_pct:.2f}%"],
        ["A_max", f"{report.a_max_mm2:.4f} mm2"],
        ["A_FS", f"{report.a_fs_pct:.2f}%"],
    ]
    print(ascii_table(headers, rows, title=f"partition ({args.method})"))
    plan = plan_recycling(result)
    violations = verify_recycling(plan)
    print()
    print(plan.summary())
    if violations:
        print("RECYCLING VIOLATIONS:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("recycling plan verified: feasible")
    return 0


def _cmd_eco(args):
    """Diff BASE vs EDITED, warm-start from the base solve, compare to cold."""
    import json
    import time

    from repro.core.incremental import align_labels, incremental_partition
    from repro.core.partitioner import partition
    from repro.netlist.diff import diff_key, diff_netlists, touched_gate_names

    base = _load_netlist(args.base)
    edited = _load_netlist(args.edited)
    diff = diff_netlists(base, edited)
    touched = touched_gate_names(diff)
    config = PartitionConfig(engine=args.engine)

    start = time.perf_counter()
    base_result = partition(base, args.planes, config, seed=args.seed)
    base_s = time.perf_counter() - start

    prev = align_labels([g.name for g in base.gates], base_result.labels, edited)
    start = time.perf_counter()
    warm_result, info = incremental_partition(
        edited, args.planes, prev, touched, config=config, seed=args.seed,
        halo=args.halo, threshold=args.threshold, quality_eps=args.eps,
    )
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    cold_result = partition(edited, args.planes, config, seed=args.seed)
    cold_s = time.perf_counter() - start
    cold_cost = float(cold_result.integer_cost())

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    delta_pct = (
        (info["cost"] - cold_cost) / cold_cost * 100.0 if cold_cost else 0.0
    )
    summary = {
        "base": base.name,
        "edited": edited.name,
        "diff_key": diff_key(diff),
        "added_gates": len(diff["added_gates"]),
        "removed_gates": len(diff["removed_gates"]),
        "modified_gates": len(diff["modified_gates"]),
        "added_connections": len(diff["added_connections"]),
        "removed_connections": len(diff["removed_connections"]),
        "touched_gates": len(touched),
        "eco": info,
        "base_solve_s": base_s,
        "warm_solve_s": warm_s,
        "cold_solve_s": cold_s,
        "speedup": speedup,
        "warm_cost": info["cost"],
        "cold_cost": cold_cost,
        "quality_delta_pct": delta_pct,
    }
    if getattr(args, "json", False):
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [
        ["base / edited", f"{base.name} -> {edited.name}"],
        ["edit", f"+{summary['added_gates']}g -{summary['removed_gates']}g "
                 f"~{summary['modified_gates']}g "
                 f"+{summary['added_connections']}c "
                 f"-{summary['removed_connections']}c"],
        ["touched gates", summary["touched_gates"]],
        ["mode", info["mode"] + (
            f" (fallback: {info['fallback_reason']})" if info["fallback_reason"] else ""
        )],
        ["region", f"{info.get('region_gates', 0)} gates "
                   f"({info.get('region_fraction', 0.0) * 100:.1f}%)"],
        ["warm solve", f"{warm_s * 1000:.1f} ms (cost {info['cost']:.6g})"],
        ["cold solve", f"{cold_s * 1000:.1f} ms (cost {cold_cost:.6g})"],
        ["speedup", f"{speedup:.1f}x"],
        ["quality delta", f"{delta_pct:+.2f}% vs cold"],
    ]
    print(ascii_table(["metric", "value"], rows, title="incremental ECO re-partition"))
    return 0


def _cmd_sweep(args):
    """K x weight-ratio Pareto sweep with the ASCII frontier render.

    Validates through the same :func:`repro.service.api.validate_request`
    path the service uses and runs the same
    :func:`repro.harness.pareto.execute_sweep`, so a local sweep's grid
    points are by construction bitwise-identical to served ones.
    """
    import json

    from repro.harness.pareto import execute_sweep, render_sweep
    from repro.service.api import validate_request
    from repro.service.errors import BadRequestError

    body = {
        "kind": "sweep",
        "k_values": args.k_values,
        "weight_ratios": args.ratios,
        "seed": args.seed,
        "engine": args.engine,
    }
    if args.clock_ghz is not None:
        body["clock_ghz"] = args.clock_ghz
    if args.circuit in SUITE_NAMES:
        body["circuit"] = args.circuit
    else:
        from repro.netlist.serialize import netlist_to_dict

        body["netlist"] = netlist_to_dict(_load_netlist(args.circuit))
    try:
        normalized = validate_request(body)
    except BadRequestError as error:
        raise ReproError(str(error)) from None

    payload, stats = execute_sweep(normalized, jobs=args.jobs, run_kwargs=_run_opts(args))

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    headers = ["K", "ratio", "c1", "d<=1", "I_comp", "A_FS",
               "P_rsfq uW", "P_ersfq uW", "saving", "front"]
    rows = []
    for point in payload["points"]:
        metrics, energy = point["metrics"], point["energy"]
        rows.append([
            point["num_planes"], f"{point['ratio']:g}", f"{point['weights']['c1']:g}",
            percent(metrics["frac_d_le_1"]), f"{metrics['i_comp_pct']:.2f}%",
            f"{metrics['a_fs_pct']:.2f}%", f"{energy['energy_uw_rsfq']:.2f}",
            f"{energy['energy_uw_ersfq']:.4f}", f"{energy['saving_pct']:.2f}%",
            "*" if point["on_frontier"] else "",
        ])
    print(ascii_table(
        headers, rows,
        title=f"Pareto sweep: {payload['circuit']} at {payload['clock_ghz']:g} GHz "
        f"({stats['points']} points, {stats['cache_hits']} cached)",
    ))
    print()
    print(render_sweep(payload, width=args.width))
    if payload["skipped_k"]:
        print(
            f"skipped infeasible K (more planes than the {payload['num_gates']} "
            "gates): " + ", ".join(str(k) for k in payload["skipped_k"])
        )
    _print_run_summary()
    return 0


def _cmd_table1(args):
    rows = tables.run_table1(
        num_planes=args.planes, config=PartitionConfig(engine=args.engine),
        seed=args.seed, method=args.method, refine=args.refine, jobs=args.jobs,
        **_run_opts(args),
    )
    print(tables.format_table1(rows, compare_paper=not args.no_paper))
    _print_run_summary()
    return 0


def _cmd_table2(args):
    reports = tables.run_table2(
        circuit=args.circuit, config=PartitionConfig(engine=args.engine),
        seed=args.seed, method=args.method, refine=args.refine, jobs=args.jobs,
        **_run_opts(args),
    )
    print(tables.format_table2(reports, compare_paper=not args.no_paper))
    _print_run_summary()
    return 0


def _cmd_table3(args):
    rows = tables.run_table3(
        bias_limit_ma=args.limit, seed=args.seed, jobs=args.jobs, **_run_opts(args)
    )
    print(tables.format_table3(rows, compare_paper=not args.no_paper))
    _print_run_summary()
    return 0


def _cmd_cache(args):
    from repro.cache import default_cache

    cache = default_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed from {cache.path}")
        return 0
    if args.action == "gc":
        from repro.service.gc import run_gc
        from repro.service.store import ResultStore

        store = ResultStore()
        summary = run_gc(
            store,
            max_age=args.max_age,
            keep_latest=args.keep_latest,
            dry_run=args.dry_run,
        )
        verb = "would remove" if summary["dry_run"] else "removed"
        print(
            f"result-store gc: scanned {summary['scanned']} entries, "
            f"kept {summary['kept']}, {verb} {summary['removed']} "
            f"({summary['freed_bytes'] / 1024:.1f} KiB) in {store.path}"
        )
        return 0
    info = cache.info()
    if getattr(args, "json", False):
        import json

        from repro.service.api import schema_versions

        info = dict(info)
        info["versions"] = schema_versions()
        print(json.dumps(info, indent=2))
        return 0
    rows = [
        ["path", info["path"]],
        ["enabled", "yes" if info["enabled"] else "no (REPRO_CACHE=0)"],
        ["entries", info["entries"]],
        ["size", f"{info['bytes'] / 1024:.1f} KiB"],
    ]
    for kind, count in sorted(info["kinds"].items()):
        rows.append([f"entries[{kind}]", count])
    for event, count in sorted(info["stats"].items()):
        rows.append([f"session {event}", count])
    print(ascii_table(["field", "value"], rows, title="on-disk artifact cache"))
    return 0


def _cmd_version(args):
    from repro.service.api import schema_versions

    versions = schema_versions()
    if getattr(args, "json", False):
        import json

        print(json.dumps(versions, indent=2))
        return 0
    rows = [[name, str(value)] for name, value in versions.items()]
    print(ascii_table(["component", "version"], rows, title="repro-gpp versions"))
    return 0


def _cmd_serve(args):
    from repro.service.server import serve

    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        isolation=args.isolation,
        lease_ttl=args.lease_ttl,
        heartbeat=args.heartbeat,
        verbose=args.verbose,
        tracing=args.trace_requests,
    )
    return 0


def _cmd_worker(args):
    from repro.fleet.worker import FleetWorker

    worker = FleetWorker(
        args.coordinator,
        worker_id=args.id,
        max_inflight=args.max_inflight,
        poll=args.poll,
        verbose=args.verbose,
    )
    # Both signals stop the node, also when it inherited SIGINT ignored
    # (a shell's background job), which Python would leave ignored.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    print(f"repro-gpp fleet worker {worker.worker_id} ready", flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:
        worker.stop()
    return 0


def _cmd_obs(args):
    import json

    if args.obs_command == "report":
        from repro.obs.export import read_trace_jsonl
        from repro.obs.report import render_waterfall

        parsed = read_trace_jsonl(args.trace_file)
        print(render_waterfall(parsed, request=args.request, width=args.width))
        return 0
    if args.obs_command == "events":
        from repro.obs.events import read_events

        events, corrupt = read_events(args.events_file)
        if args.job:
            events = [e for e in events if e.get("job_id") == args.job]
        for event in events:
            print(json.dumps(event, sort_keys=True))
        if corrupt:
            print(f"({corrupt} corrupt line(s) skipped)", file=sys.stderr)
        return 0
    raise ReproError(f"unknown obs subcommand {args.obs_command!r}")


def _cmd_figure1(args):
    text, _floorplan, _result = figures.figure1(args.circuit, args.planes, seed=args.seed)
    print(text)
    return 0


def _cmd_stats(args):
    netlist = _load_netlist(args.circuit)
    from repro.netlist.stats import netlist_stats

    stats = netlist_stats(netlist)
    rows = [
        ["gates", stats.num_gates],
        ["connections", stats.num_connections],
        ["connections/gate", f"{stats.connections_per_gate:.3f}"],
        ["avg bias", f"{stats.avg_bias_ma:.3f} mA"],
        ["avg area", f"{stats.avg_area_um2:.0f} um2"],
        ["splitter fraction", f"{stats.splitter_fraction * 100:.1f}%"],
        ["DFF fraction", f"{stats.dff_fraction * 100:.1f}%"],
        ["logic fraction", f"{stats.logic_fraction * 100:.1f}%"],
        ["pipeline depth", stats.pipeline_depth],
        ["max degree", stats.max_degree],
        ["locality index", f"{stats.locality:.3f}"],
    ]
    print(ascii_table(["metric", "value"], rows, title=f"netlist statistics: {netlist.name}"))
    mix = ", ".join(f"{name}:{count}" for name, count in sorted(stats.cell_mix.items()))
    print(f"cell mix: {mix}")
    return 0


def _cmd_latency(args):
    netlist = _load_netlist(args.circuit)
    result = tables._partition_with(
        args.method, netlist, args.planes, seed=args.seed, refine=args.refine
    )
    from repro.recycling.latency import analyze_latency

    report = analyze_latency(result)
    rows = [
        ["circuit", report.circuit],
        ["planes", report.num_planes],
        ["base clock", f"{report.base_frequency_ghz:.1f} GHz"],
        ["partitioned clock", f"{report.partitioned_frequency_ghz:.1f} GHz"],
        ["worst crossing", f"{report.worst_edge_distance} boundaries"],
        ["crossing connections", report.crossing_edges],
        ["frequency loss", f"{report.frequency_loss_pct:.1f}%"],
    ]
    print(ascii_table(["metric", "value"], rows, title="coupling latency impact"))
    return 0


def _cmd_simulate(args):
    netlist = _load_netlist(args.circuit)
    from repro.sim import PulseSimulator

    simulator = PulseSimulator(netlist)
    assignments = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise ReproError(f"--set expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        assignments[name] = int(value, 0)
    outputs = simulator.run_bus(
        assignments, args.outputs or [p.name for p in netlist.output_ports()]
    )
    rows = [[name, value] for name, value in sorted(outputs.items())]
    print(ascii_table(["output", "value"], rows,
                      title=f"pulse simulation ({simulator.pipeline_depth} cycles)"))
    return 0


def _cmd_convergence(args):
    history, result = figures.convergence_trace(args.circuit, args.planes, seed=args.seed)
    print(figures.render_convergence(history))
    print(
        f"iterations: {result.trace.iterations}, converged: {result.trace.converged}, "
        f"final cost: {history[-1]:.6f}"
    )
    return 0


def _cmd_convergence_report(args):
    """Per-iteration cost-term telemetry of a partition run."""
    from repro.core.partitioner import partition
    from repro.obs import SolverTelemetry, write_telemetry_csv, write_trace_jsonl

    netlist = _load_netlist(args.circuit)
    was_enabled = obs.enabled()
    obs.enable()  # the report needs solver telemetry regardless of flags
    try:
        config = PartitionConfig(engine=args.engine)
        result = partition(netlist, args.planes, config=config, seed=args.seed)
        records = result.trace.telemetry or []
        if not records:
            raise ReproError("solver produced no telemetry (trivial K=1 partition?)")

        if args.output:
            # Export the full run (all restarts), not just the winner.
            run_id = records[0]["run"]
            subset = SolverTelemetry()
            subset.runs = [r for r in obs.OBS.telemetry.runs if r["run"] == run_id]
            subset.records = obs.OBS.telemetry.run_records(run_id)
            if args.format == "csv":
                write_telemetry_csv(args.output, subset)
            else:
                write_trace_jsonl(
                    args.output,
                    telemetry=subset,
                    meta={"command": "convergence-report", "circuit": netlist.name,
                          "planes": args.planes, "engine": args.engine},
                )
            print(f"telemetry written to {args.output} ({len(subset.records)} records)")

        def fmt(value, spec=".6f"):
            return "-" if value is None else format(value, spec)

        shown = records
        if len(records) > args.max_rows > 0:
            # Even subsample that always keeps the first and last iteration.
            step = (len(records) - 1) / (args.max_rows - 1)
            shown = [records[round(i * step)] for i in range(args.max_rows)]
        rows = [
            [
                r["iteration"], fmt(r["f1"]), fmt(r["f2"]), fmt(r["f3"]), fmt(r["f4"]),
                fmt(r["total"]), fmt(r["rel_change"], ".3e"), fmt(r["grad_norm"], ".4f"),
                r["active_restarts"],
            ]
            for r in shown
        ]
        print(
            ascii_table(
                ["iter", "F1", "F2", "F3", "F4", "total", "rel change", "|grad|", "active"],
                rows,
                title=f"convergence report: {netlist.name}, K={args.planes}, "
                f"engine={args.engine} (winning restart)",
            )
        )
        converged = sum(1 for s in result.restart_stats if s["converged"])
        total = len(result.restart_stats)
        print(
            f"winning restart: {records[0]['restart']} | "
            f"iterations: {result.trace.iterations}, converged: {result.trace.converged}"
        )
        print(
            f"restarts: {total}, converged: {converged}/{total} "
            f"({100.0 * converged / total:.0f}%), iterations per restart: "
            + ", ".join(str(s["iterations"]) for s in result.restart_stats)
        )
        return 0
    finally:
        if not was_enabled:
            obs.disable(reset=True)


_JOBS_EPILOG = (
    "Parallelism: --jobs N runs the independent per-circuit solves in N "
    "worker processes (default: the REPRO_JOBS environment variable, else "
    "min(cpus, 8)).  Every jobs value produces bitwise-identical results; "
    "workers share the on-disk artifact cache (REPRO_CACHE_DIR / "
    "REPRO_CACHE=0) and their observability data is merged into the "
    "parent trace.  See docs/performance.md.  Robustness: failed or "
    "timed-out jobs are retried with exponential backoff (--retries / "
    "--timeout, or REPRO_RETRIES / REPRO_JOB_TIMEOUT); --checkpoint FILE "
    "streams completed rows to a JSONL checkpoint and --resume skips them "
    "on a rerun.  See docs/robustness.md."
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-gpp",
        description="Ground plane partitioning for current recycling of "
        "superconducting circuits (DATE 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("suite", help="list the reconstructed benchmark suite")

    partition_parser = subparsers.add_parser("partition", help="partition a circuit or DEF file")
    partition_parser.add_argument("circuit", help="benchmark name or DEF path")
    _add_common(partition_parser)
    partition_parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    partition_parser.add_argument("--save", metavar="PATH", help="save the partition as JSON")
    for weight, role in (("c1", "interconnect (d<=1)"), ("c2", "bias balance"),
                         ("c3", "area balance"), ("c4", "plane emptiness")):
        partition_parser.add_argument(
            f"--{weight}", type=float, default=None, metavar="W",
            help=f"eq. (8) {role} weight override (gradient method)",
        )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="K x weight-ratio Pareto sweep with per-point energy estimates",
        epilog="Environment: REPRO_SWEEP_CLOCK_GHZ/JOBS/MAX_POINTS set the "
        "sweep knobs (flags win); see docs/planning.md for the sweep "
        "schema, energy model and frontier semantics.",
    )
    sweep_parser.add_argument("circuit", help="benchmark name or DEF path")
    sweep_parser.add_argument(
        "-k", "--k-values", type=_int_list, default=[2, 3, 4, 5], metavar="K1,K2,...",
        help="comma-separated plane counts (default 2,3,4,5); K beyond the "
        "gate count is reported as skipped, not an error",
    )
    sweep_parser.add_argument(
        "--ratios", type=_float_list, default=[0.2, 1.0, 4.0, 16.0], metavar="R1,R2,...",
        help="comma-separated c1 weight multipliers (default 0.2,1,4,16)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed (default 0; sweeps are content-addressed, so the "
        "seed must be pinned)",
    )
    sweep_parser.add_argument(
        "--engine", choices=ENGINES, default="batched",
        help="gradient solver engine",
    )
    sweep_parser.add_argument(
        "--clock-ghz", type=_positive_float, default=None, metavar="GHZ",
        help="ERSFQ energy-model clock (default REPRO_SWEEP_CLOCK_GHZ, else 20)",
    )
    sweep_parser.add_argument(
        "--width", type=_positive_int, default=52,
        help="character width of the frontier render (default 52)",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="emit the sweep payload as JSON"
    )
    _add_jobs(sweep_parser)
    _add_obs(sweep_parser)

    eco_parser = subparsers.add_parser(
        "eco",
        help="incremental re-partition of an edited netlist (warm start)",
        epilog="Environment: REPRO_ECO_HALO/THRESHOLD/QUALITY_EPS set the "
        "incremental-solver knobs (flags win); see docs/eco.md.",
    )
    eco_parser.add_argument("base", help="base circuit: benchmark name, DEF or netlist JSON")
    eco_parser.add_argument("edited", help="edited circuit: benchmark name, DEF or netlist JSON")
    eco_parser.add_argument("-k", "--planes", type=int, default=5, help="number of ground planes")
    eco_parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    eco_parser.add_argument(
        "--engine", choices=ENGINES, default="batched",
        help="gradient solver engine for the cold solves",
    )
    eco_parser.add_argument(
        "--halo", type=_nonnegative_int, default=None,
        help="BFS hops around touched gates to re-solve (default 2)",
    )
    eco_parser.add_argument(
        "--threshold", type=float, default=None,
        help="region fraction above which to fall back to a cold solve (default 0.25)",
    )
    eco_parser.add_argument(
        "--eps", type=float, default=None,
        help="quality guard: warm cost may exceed carried cost by this fraction (default 0.05)",
    )
    eco_parser.add_argument("--json", action="store_true", help="emit the comparison as JSON")
    _add_obs(eco_parser)

    stats_parser = subparsers.add_parser("stats", help="structural statistics of a circuit")
    stats_parser.add_argument("circuit", help="benchmark name or DEF path")

    latency_parser = subparsers.add_parser("latency", help="coupling latency impact of a partition")
    latency_parser.add_argument("circuit", help="benchmark name or DEF path")
    _add_common(latency_parser)

    simulate_parser = subparsers.add_parser("simulate", help="pulse-simulate a circuit")
    simulate_parser.add_argument("circuit", help="benchmark name or DEF path")
    simulate_parser.add_argument(
        "--set", action="append", metavar="BUS=VALUE",
        help="input bus/pin assignment, e.g. --set a=11 --set b=0x2f",
    )
    simulate_parser.add_argument(
        "--outputs", nargs="*", metavar="BUS", help="output buses to report (default: all pins)"
    )

    table1_parser = subparsers.add_parser(
        "table1", help="regenerate Table I", epilog=_JOBS_EPILOG
    )
    _add_common(table1_parser)
    _add_jobs(table1_parser)
    table1_parser.add_argument("--no-paper", action="store_true", help="omit paper rows")

    table2_parser = subparsers.add_parser(
        "table2", help="regenerate Table II", epilog=_JOBS_EPILOG
    )
    table2_parser.add_argument("--circuit", default="KSA4")
    _add_common(table2_parser)
    _add_jobs(table2_parser)
    table2_parser.add_argument("--no-paper", action="store_true")

    table3_parser = subparsers.add_parser(
        "table3", help="regenerate Table III", epilog=_JOBS_EPILOG
    )
    table3_parser.add_argument("--limit", type=float, default=100.0, help="pad current limit (mA)")
    table3_parser.add_argument("--seed", type=int, default=None)
    _add_jobs(table3_parser)
    table3_parser.add_argument("--no-paper", action="store_true")

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact cache",
        epilog="Environment: REPRO_CACHE_DIR overrides the cache root "
        "(default ~/.cache/repro-gpp); REPRO_CACHE=0 disables the cache "
        "entirely.  'clear' only removes the repro namespace directory, "
        "never anything else under the root.  'gc' walks the *service "
        "result store* namespace and drops entries that are neither "
        "live (per --max-age / --keep-latest) nor a base_key ancestor "
        "of a live ECO chain entry.",
    )
    cache_parser.add_argument(
        "action", choices=("info", "clear", "gc"), help="what to do"
    )
    cache_parser.add_argument(
        "--json", action="store_true",
        help="emit 'info' as JSON (includes every data-format schema version)",
    )
    cache_parser.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="gc: entries younger than this stay live",
    )
    cache_parser.add_argument(
        "--keep-latest", type=int, default=None, metavar="N",
        help="gc: the N newest entries of each ECO chain stay live",
    )
    cache_parser.add_argument(
        "--dry-run", action="store_true",
        help="gc: report what would be removed without deleting",
    )

    version_parser = subparsers.add_parser(
        "version", help="package version and data-format schema versions"
    )
    version_parser.add_argument("--json", action="store_true", help="emit as JSON")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the partitioning HTTP service",
        epilog="Environment: REPRO_SERVICE_HOST/PORT/WORKERS/QUEUE/"
        "RETRY_AFTER/STORE/ISOLATION configure the service (flags win); "
        "see docs/service.md for the API and the full knob table.",
    )
    serve_parser.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 8731; 0 = pick a free port)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="job-executing worker threads (default min(cpus, 4))",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=None,
        help="max queued jobs before 429 backpressure (default 64)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job-attempt wall-clock limit in seconds "
        "(enforced in --isolation process mode)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=None,
        help="retries per failed job (default REPRO_RETRIES, else 2)",
    )
    serve_parser.add_argument(
        "--backoff", type=float, default=None,
        help="base seconds of exponential retry backoff "
        "(default REPRO_RETRY_BACKOFF)",
    )
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=None,
        help="fleet lease deadline in seconds; an unheartbeated lease "
        "expires and requeues after this long "
        "(default REPRO_FLEET_LEASE_TTL, else 30)",
    )
    serve_parser.add_argument(
        "--heartbeat", type=float, default=None,
        help="fleet heartbeat period handed to workers "
        "(default REPRO_FLEET_HEARTBEAT, else lease-ttl/3)",
    )
    serve_parser.add_argument(
        "--isolation", choices=("inline", "process", "fleet"), default=None,
        help="run solves in the worker thread (inline), a worker "
        "process (crash isolation + hard deadlines), or dispatch them "
        "to fleet worker nodes over /fleet/v1 (see 'worker')",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.add_argument(
        "--trace-requests", action="store_true",
        help="record per-job phase spans and solver spans under each "
        "request's trace context (disables mega-batching; debugging aid)",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="run a fleet worker node against a coordinator",
        epilog="Environment: REPRO_FLEET_WORKER_ID/MAX_INFLIGHT/POLL "
        "configure the node (flags win); REPRO_FLEET_LEASE_TTL/"
        "HEARTBEAT are coordinator-side.  The coordinator is a 'serve' "
        "instance started with --isolation fleet; see docs/fleet.md.",
    )
    worker_parser.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8731",
    )
    worker_parser.add_argument(
        "--id", default=None,
        help="worker id (default REPRO_FLEET_WORKER_ID, else <hostname>-<pid>)",
    )
    worker_parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="jobs leased per round trip (default 2)",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=None,
        help="idle lease long-poll seconds (default 2)",
    )
    worker_parser.add_argument(
        "--verbose", action="store_true", help="log every lease and completion"
    )

    obs_parser = subparsers.add_parser(
        "obs",
        help="inspect exported observability artifacts",
        epilog="See docs/observability.md for the trace-file and "
        "event-log schemas.",
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report_parser = obs_subparsers.add_parser(
        "report", help="render per-request span waterfalls from a JSONL trace"
    )
    obs_report_parser.add_argument("trace_file", help="JSONL trace path")
    obs_report_parser.add_argument(
        "--request", default=None, metavar="ID",
        help="only render this request id",
    )
    obs_report_parser.add_argument(
        "--width", type=_positive_int, default=48,
        help="character width of the time axis (default 48)",
    )
    obs_events_parser = obs_subparsers.add_parser(
        "events", help="pretty-print a JSONL job event log"
    )
    obs_events_parser.add_argument("events_file", help="JSONL event-log path")
    obs_events_parser.add_argument(
        "--job", default=None, metavar="ID", help="only print this job's events"
    )

    figure1_parser = subparsers.add_parser("figure1", help="render the Fig. 1 floorplan")
    figure1_parser.add_argument("circuit", nargs="?", default="KSA4")
    _add_common(figure1_parser)

    convergence_parser = subparsers.add_parser("convergence", help="convergence figure")
    convergence_parser.add_argument("circuit", nargs="?", default="KSA8")
    _add_common(convergence_parser)

    report_parser = subparsers.add_parser(
        "convergence-report",
        help="per-iteration F1..F4 solver telemetry of a partition run",
    )
    report_parser.add_argument("circuit", nargs="?", default="KSA8")
    report_parser.add_argument("-k", "--planes", type=int, default=5)
    report_parser.add_argument("--seed", type=int, default=None)
    report_parser.add_argument(
        "--engine", choices=ENGINES, default="batched",
        help="solver engine",
    )
    report_parser.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="--output file format"
    )
    report_parser.add_argument(
        "--output", metavar="FILE", default=None, help="write full telemetry (all restarts)"
    )
    report_parser.add_argument(
        "--max-rows", type=int, default=24,
        help="cap on printed iteration rows (0 = print all)",
    )
    _add_obs(report_parser)

    return parser


_COMMANDS = {
    "suite": _cmd_suite,
    "partition": _cmd_partition,
    "eco": _cmd_eco,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
    "latency": _cmd_latency,
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "cache": _cmd_cache,
    "version": _cmd_version,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "obs": _cmd_obs,
    "figure1": _cmd_figure1,
    "convergence": _cmd_convergence,
    "convergence-report": _cmd_convergence_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None) or obs.env_trace_path()
    profile = getattr(args, "profile", False)
    capture = bool(trace_path) or profile or obs.apply_env()
    if capture:
        obs.enable()
        if obs.context_enabled() and obs.OBS.trace.context is None:
            # Root every span of this invocation in one trace so the
            # exported JSONL replays as a single connected tree.
            obs.OBS.trace.context = obs.TraceContext.new()
    try:
        code = _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if args.command.startswith("table"):
            _print_run_summary()
        code = 2
    finally:
        if capture:
            if profile:
                print()
                print(obs.OBS.trace.render_table())
                print()
                print(obs.OBS.metrics.render_table())
            if trace_path:
                lines = obs.write_trace_jsonl(
                    trace_path,
                    tracer=obs.OBS.trace,
                    metrics=obs.OBS.metrics,
                    telemetry=obs.OBS.telemetry,
                    meta={"command": args.command, "circuit": getattr(args, "circuit", None)},
                )
                print(f"trace written to {trace_path} ({lines} records)")
            obs.disable(reset=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

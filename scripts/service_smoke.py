#!/usr/bin/env python
"""CI smoke test of the partitioning service, end to end over HTTP.

Boots ``repro-gpp serve`` as a real subprocess (the exact artifact a
user deploys), then proves the three service-level guarantees:

1. **Parity** — a KSA16 K=4 partition served over HTTP is bitwise
   identical to the same request run through the CLI (``repro-gpp
   partition --save``), and a repeated request is answered by the
   content-keyed result store (hit counter visible in ``/metrics``).
2. **Backpressure** — a server with one worker and a one-slot queue
   answers HTTP 429 with a ``Retry-After`` header once the queue is
   full, while already-admitted work keeps running.
3. **Chaos** — with an injected always-crash fault plan
   (``REPRO_FAULT``) the job fails *cleanly*: the job status reports the
   failure, the result route returns a 5xx JSON error, and the server
   keeps serving (``/healthz`` stays ok).
4. **Observability** — a ``--trace-requests`` server with process
   isolation yields a connected request→worker span tree on
   ``/v1/trace``, a lifecycle event log on ``/v1/jobs/<id>/events``,
   and ``/metrics?format=prometheus`` output that passes
   ``lint_exposition``. The scraped exposition, the trace and the
   event log are written to ``service_smoke_artifacts/`` (override
   with ``SMOKE_ARTIFACT_DIR``) for CI upload.  A second,
   inline-isolated ``--trace-requests`` server takes two requests
   back to back; each must yield exactly one connected tree holding
   its solver spans (concurrent traced solves stay apart).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service.client import ServiceClient, ServiceHTTPError  # noqa: E402
from repro.service.errors import QueueFullError  # noqa: E402

READY_RE = re.compile(r"listening on (http://[\d.]+:\d+)")


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


def probe_parity(cache_dir):
    request = {"circuit": "KSA16", "num_planes": 4, "seed": 2020}
    env = {"REPRO_CACHE_DIR": cache_dir}
    with ServerProcess("--workers", "2", env=env) as server:
        client = ServiceClient(server.url, timeout=120.0)
        served = client.partition(request, timeout=600.0)

        saved = os.path.join(cache_dir, "cli_partition.json")
        subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "partition", "KSA16",
             "-k", "4", "--seed", "2020", "--save", saved],
            check=True, stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
                 "REPRO_CACHE_DIR": cache_dir},
        )
        with open(saved) as handle:
            cli_labels = np.asarray(json.load(handle)["labels"])
        check(np.array_equal(served["labels"], cli_labels),
              "HTTP-served KSA16 K=4 assignment is bitwise identical to the CLI run")

        repeat = client.submit(request)
        check(repeat["outcome"] == "cached" and repeat["state"] == "done",
              "repeated request answered from the result store")
        hits = client.metrics()["metrics"]["service.store.hits"]["value"]
        check(hits >= 1, f"/metrics shows the store hit (service.store.hits={hits})")


def probe_backpressure(cache_dir):
    env = {"REPRO_CACHE_DIR": cache_dir, "REPRO_CACHE": "0"}  # force real solves
    with ServerProcess("--workers", "1", "--queue-size", "1", env=env) as server:
        client = ServiceClient(server.url, timeout=120.0)
        # C3540 solves take long enough that both submissions land while
        # the first is still running: one busy worker + one queued job
        # leaves no capacity for the third.
        running = client.submit({"circuit": "C3540", "num_planes": 5, "seed": 1})
        queued = client.submit({"circuit": "C3540", "num_planes": 5, "seed": 2})
        check(running["state"] in ("queued", "running"), "first job admitted")
        check(queued["state"] == "queued", "second job queued")
        got_429 = False
        retry_after = None
        try:
            client.submit({"circuit": "C3540", "num_planes": 5, "seed": 3})
        except QueueFullError as error:
            got_429 = True
            retry_after = error.retry_after
        check(got_429, f"full queue answered 429 (Retry-After={retry_after})")
        check(client.health()["status"] == "ok", "server still healthy under backpressure")
        client.cancel(queued["id"])


def probe_chaos(cache_dir):
    env = {
        "REPRO_CACHE_DIR": cache_dir,
        "REPRO_FAULT": "crash@0x99",  # every attempt of every job crashes
        "REPRO_RETRIES": "1",
    }
    with ServerProcess("--workers", "1", env=env) as server:
        client = ServiceClient(server.url, timeout=120.0)
        job = client.submit({"circuit": "KSA4", "num_planes": 3, "seed": 7})
        status = client.wait(job["id"], timeout=120.0)
        check(status["state"] == "failed" and "crash" in status["error"],
              "injected crash surfaces as a clean job failure")
        got_500 = False
        try:
            client.result(job["id"])
        except ServiceHTTPError as error:
            got_500 = error.status == 500
        check(got_500, "result route answers a clean 500 for the failed job")
        check(client.health()["status"] == "ok", "server keeps serving after the fault")


def tree_paths(node):
    yield node["path"]
    for child in node["children"]:
        yield from tree_paths(child)


def probe_observability(cache_dir, artifact_dir):
    import io

    from repro.obs import lint_exposition
    from repro.obs.export import read_trace_jsonl
    from repro.obs.report import render_waterfall, span_trees

    os.makedirs(artifact_dir, exist_ok=True)
    events_path = os.path.join(artifact_dir, "events.jsonl")
    env = {
        "REPRO_CACHE_DIR": cache_dir,
        "REPRO_CACHE": "0",  # force a real solve so solver spans exist
        "REPRO_EVENTS": events_path,
    }
    with ServerProcess("--workers", "2", "--isolation", "process",
                       "--trace-requests", env=env) as server:
        client = ServiceClient(server.url, timeout=120.0)
        job = client.submit({"circuit": "KSA4", "num_planes": 3, "seed": 11})
        request_id = job["trace"]["request_id"]
        client.wait(job["id"], timeout=300.0)

        events = client.job_events(job["id"])["events"]
        names = [event["event"] for event in events]
        check(names[0] == "queued" and names[-1] == "done"
              and "solving" in names,
              f"event log tells the lifecycle story ({' -> '.join(names)})")

        exposition = client.metrics_text()
        problems = lint_exposition(exposition)
        check(problems == [],
              f"/metrics exposition passes the format lint ({problems or 'clean'})")
        check("repro_service_job_solve_seconds_bucket" in exposition,
              "exposition carries the job-phase latency histograms")

        trace_text = client.trace_text()

    parsed = read_trace_jsonl(io.StringIO(trace_text))
    requests, _ = span_trees(parsed["spans"])
    check(request_id in requests and len(requests[request_id]) == 1,
          "one POST produced one connected span tree on /v1/trace")

    paths = set(tree_paths(requests[request_id][0]))
    check(any(p.startswith("partition") for p in paths),
          "worker-side solver spans re-parented into the request tree")

    with open(os.path.join(artifact_dir, "metrics.prom"), "w") as handle:
        handle.write(exposition)
    with open(os.path.join(artifact_dir, "trace.jsonl"), "w") as handle:
        handle.write(trace_text)
    with open(os.path.join(artifact_dir, "waterfall.txt"), "w") as handle:
        handle.write(render_waterfall(parsed, request=request_id))
    check(os.path.getsize(events_path) > 0,
          f"sample artifacts written to {artifact_dir}")

    inline_env = {"REPRO_CACHE_DIR": cache_dir, "REPRO_CACHE": "0"}
    with ServerProcess("--workers", "2", "--isolation", "inline",
                       "--trace-requests", env=inline_env) as server:
        client = ServiceClient(server.url, timeout=120.0)
        jobs = [client.submit({"circuit": "KSA4", "num_planes": 3, "seed": seed})
                for seed in (12, 13)]
        for job in jobs:
            client.wait(job["id"], timeout=300.0)
        trace_text = client.trace_text()

    requests, _ = span_trees(read_trace_jsonl(io.StringIO(trace_text))["spans"])
    for job in jobs:
        request_id = job["trace"]["request_id"]
        roots = requests.get(request_id, [])
        check(len(roots) == 1,
              f"inline: request {request_id} produced one connected span tree")
        check(any("partition" in path.split("/")
                  for path in tree_paths(roots[0])),
              f"inline: request {request_id}'s tree holds its solver spans")


def main():
    artifact_dir = os.environ.get(
        "SMOKE_ARTIFACT_DIR",
        os.path.join(os.getcwd(), "service_smoke_artifacts"),
    )
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as cache_dir:
        print("== parity + result store ==")
        probe_parity(cache_dir)
        print("== backpressure ==")
        probe_backpressure(cache_dir)
        print("== chaos ==")
        probe_chaos(cache_dir)
        print("== observability ==")
        probe_observability(cache_dir, artifact_dir)
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

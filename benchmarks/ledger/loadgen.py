"""Program processes, the metered client, and the closed-loop timed pass.

The program under test runs as real subprocesses (``repro-gpp serve``
and, for the fleet, ``repro-gpp worker``) started from this checkout's
``src``.  Load comes from this process alone: one client driving the
public :class:`~repro.service.client.ServiceClient`, sending its next op
only after the previous one finished.
"""

import collections
import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.harness.checkpoint import payload_from_jsonable
from repro.service.client import ServiceClient

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

SERVER_READY = re.compile(r"listening on (http://[\d.]+:\d+)")
WORKER_READY = re.compile(r"fleet worker \S+ ready")

#: Status polling period of ``ServiceClient.wait`` (its default).
POLL_S = 0.05
#: Bound on one op; nothing in a workload comes close.
OP_TIMEOUT_S = 120.0
#: Bound on a process start or stop.
PROCESS_TIMEOUT_S = 60.0


def program_env(cache_dir):
    """Environment of a program process: this checkout's code, private cache.

    ``REPRO_*`` variables of the caller are dropped so that the program
    runs with its defaults whatever the shell exported.
    """
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=cache_dir, PYTHONUNBUFFERED="1")
    return env


class ProgramProcess:
    """One program subprocess whose output is drained on a thread."""

    def __init__(self, argv, env, ready, stop_signal=signal.SIGTERM):
        self.stop_signal = stop_signal
        self.tail = collections.deque(maxlen=40)
        self.match = None
        self._ready = threading.Event()
        self._pattern = ready
        self.process = subprocess.Popen(
            argv, env=env, cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self):
        for line in self.process.stdout:
            self.tail.append(line.rstrip())
            if self.match is None:
                found = self._pattern.search(line)
                if found:
                    self.match = found
                    self._ready.set()
        self._ready.set()

    @property
    def pid(self):
        return self.process.pid

    def wait_ready(self, timeout=PROCESS_TIMEOUT_S):
        self._ready.wait(timeout)
        if self.match is None:
            self.stop()
            raise RuntimeError(
                "program did not report ready:\n" + "\n".join(self.tail)
            )
        return self.match

    def stop(self):
        """Signal, wait for exit (kill after the bound), drain the pipe."""
        if self.process.poll() is None:
            self.process.send_signal(self.stop_signal)
            try:
                self.process.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5.0)
        return self.process.returncode


def command(traced_spans, *args):
    """argv of one program command, through the traced launcher if asked."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro.harness.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_entry.py"), traced_spans, *args]


def start_programs(cache_dir, fleet=False, spans_prefix=None):
    """Start the server (plus one fleet worker); returns ``(url, [procs])``."""
    env = program_env(cache_dir)
    server_args = ["serve", "--port", "0"]
    if fleet:
        server_args += ["--isolation", "fleet"]
    spans = None if spans_prefix is None else spans_prefix + "-serve.jsonl"
    server = ProgramProcess(command(spans, *server_args), env, SERVER_READY)
    procs = [server]
    try:
        url = server.wait_ready().group(1)
        if fleet:
            spans = None if spans_prefix is None else spans_prefix + "-worker.jsonl"
            worker = ProgramProcess(
                command(spans, "worker", "--coordinator", url), env,
                WORKER_READY, stop_signal=signal.SIGINT,
            )
            procs.insert(0, worker)
            worker.wait_ready()
    except BaseException:
        stop_programs(procs)
        raise
    return url, procs


def stop_programs(procs):
    """Stop workers before the server they lease from."""
    for proc in procs:
        proc.stop()


def cpu_seconds(pid):
    """User + system CPU seconds of a live process (from /proc)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_seconds():
    """Steal time of all the host's CPUs so far (from /proc/stat)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def peak_rss_mb(pid):
    """``VmHWM`` of a live process in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# The metered client
# ----------------------------------------------------------------------

_local = threading.local()
_real_urlopen = urllib.request.urlopen


def _metered_urlopen(request, *args, **kwargs):
    """``urlopen`` that adds request/response bytes to the current op."""
    record = getattr(_local, "record", None)
    if record is not None:
        record.req_bytes += len(getattr(request, "data", None) or b"")
    try:
        response = _real_urlopen(request, *args, **kwargs)
    except urllib.error.HTTPError as error:
        if record is not None:
            record.resp_bytes += int(error.headers.get("Content-Length") or 0)
        raise
    if record is not None:
        record.resp_bytes += int(response.headers.get("Content-Length") or 0)
    return response


def install_meter():
    """Route ``ServiceClient``'s ``urlopen`` calls through the byte meter."""
    urllib.request.urlopen = _metered_urlopen


class MeteredClient(ServiceClient):
    """``ServiceClient`` that times and counts every HTTP call of an op."""

    def __init__(self, base_url, recorder=None):
        super().__init__(base_url, timeout=OP_TIMEOUT_S)
        self.recorder = recorder

    def _request(self, method, path, body=None, ctx=None):
        record = getattr(_local, "record", None)
        start = time.perf_counter()
        try:
            with _span(self.recorder, "client.http", path=f"{method} {path}"):
                return super()._request(method, path, body, ctx)
        finally:
            if record is not None:
                record.calls += 1
                record.http_s += time.perf_counter() - start


@dataclass
class OpRecord:
    """What the client saw of one op."""

    index: int
    start: float = 0.0
    end: float = 0.0
    calls: int = 0
    http_s: float = 0.0
    poll_s: float = 0.0
    #: Time the finished job waited for the status poll that saw it done.
    slack_s: float = 0.0
    decode_s: float = 0.0
    req_bytes: int = 0
    resp_bytes: int = 0
    outcome: str = None
    key: str = None
    status: dict = field(default_factory=dict)
    d_le_1: float = None
    i_comp_pct: float = None
    error: str = None

    @property
    def latency(self):
        """Client submit to decoded result."""
        return self.end - self.start

    @property
    def service_latency(self):
        """:attr:`latency` less the poll slack: as if told at once."""
        return self.latency - self.slack_s


def _span(recorder, name, **attrs):
    if recorder is None:
        return contextlib.nullcontext({})
    return recorder.span(name, **attrs)


def run_op(client, op, recorder=None):
    """Submit, poll at the client's default period, fetch and decode one op.

    A 429 is slept out by the client's backpressure policy; the op's
    latency includes the wait.
    """
    record = OpRecord(index=op.index)
    _local.record = record
    try:
        with _span(recorder, "client.op", op=op.index):
            record.start = time.perf_counter()
            job = client.submit_with_backpressure(op.body)
            record.outcome = job.get("outcome")
            record.key = job.get("key")
            status = job
            asked = None
            deadline = record.start + OP_TIMEOUT_S
            while status["state"] not in ("done", "failed", "cancelled"):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"op {op.index} timed out")
                paused = time.perf_counter()
                with _span(recorder, "client.poll_sleep"):
                    time.sleep(POLL_S)
                record.poll_s += time.perf_counter() - paused
                asked = time.time()  # the server stamps finished_at with time.time()
                status = client.status(job["id"])
            if asked is not None and status.get("finished_at") is not None:
                record.slack_s = max(0.0, asked - status["finished_at"])
            raw = client.result(job["id"])["result"]
            decoding = time.perf_counter()
            with _span(recorder, "encode", side="client"):
                payload = payload_from_jsonable(raw)
            record.end = time.perf_counter()
            record.decode_s = record.end - decoding
    except Exception as error:  # noqa: BLE001 - a failed op is data
        record.end = time.perf_counter()
        record.error = f"{type(error).__name__}: {error}"
        return record, None
    finally:
        _local.record = None
    record.status = {
        name: status.get(name)
        for name in ("submitted_at", "started_at", "finished_at")
    }
    report = payload.get("report")
    if report is not None:
        record.d_le_1 = float(report.frac_d_le_1)
        record.i_comp_pct = float(report.i_comp_pct)
    return record, raw


@dataclass
class Window:
    """One window of a pass: ``ops`` ops from ``start`` to ``end``."""

    start: float
    end: float
    ops: int
    #: CPU seconds the program processes spent in the window.
    cpu_s: float = None
    #: CPU seconds the host's hypervisor gave to others while this VM's
    #: CPUs waited, summed over its CPUs.
    steal_s: float = None

    @property
    def seconds(self):
        return self.end - self.start


def run_pass(url, ops, window=None, seconds=None, min_ops=0, cpu=None,
             on_result=None, recorder=None):
    """Run ops in list order from one closed-loop client.

    The pass runs whole windows of ``window`` ops (default: all of
    ``ops`` in one) and starts no new window once ``seconds`` have passed
    and ``min_ops`` ops are done, or when ``ops`` run out.  ``cpu(done)``,
    when given, reads the program's CPU seconds at each window boundary,
    ``done`` ops into the pass.  ``on_result(op, record, raw)`` sees every
    finished op after its clock stopped.  Returns ``(records, windows)``.
    """
    client = MeteredClient(url, recorder)
    window = window or max(1, len(ops))
    records, windows = [], []
    started = time.perf_counter()
    while len(records) + window <= len(ops):
        if seconds is not None and windows and len(records) >= min_ops \
                and time.perf_counter() - started >= seconds:
            break
        before = cpu(len(records)) if cpu else None
        stolen = steal_seconds()
        current = Window(time.perf_counter(), 0.0, window)
        for op in ops[len(records):len(records) + window]:
            record, raw = run_op(client, op, recorder)
            if on_result is not None:
                on_result(op, record, raw)
            records.append(record)
        current.end = time.perf_counter()
        current.steal_s = steal_seconds() - stolen
        if cpu:
            current.cpu_s = cpu(len(records)) - before
        windows.append(current)
    return records, windows

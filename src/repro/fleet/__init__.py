"""Distributed fleet: one coordinator, N worker nodes, shared results.

The partitioning service (:mod:`repro.service`) runs one process on one
host.  This package splits it (the first open ROADMAP item): the
**coordinator** keeps owning validation, the job queue, dedup and the
result store, and additionally exposes a worker-facing lease API
(``/fleet/v1/*`` on the same HTTP server); **worker nodes**
(``repro-gpp worker --coordinator URL``) pull leased jobs, execute them
through the exact :func:`repro.harness.runner.execute_job` / mega-batch
path every other execution mode uses, publish the payload into the
content-addressed result store, and report back.

Failure model: every lease carries a deadline and a heartbeat period.
A worker that dies (or hangs past its deadline) stops extending its
leases; the coordinator's reaper reclaims them and requeues the jobs
through the PR-4 retry taxonomy (``timed-out`` failures, exponential
backoff, bounded retries) — so worker loss converges to the same
bitwise payloads as a clean single-node run.  See docs/fleet.md.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import FLEET_PROTOCOL_VERSION
from repro.fleet.worker import FleetWorker

__all__ = [
    "FLEET_PROTOCOL_VERSION",
    "FleetCoordinator",
    "FleetWorker",
]

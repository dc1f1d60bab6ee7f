"""Message shapes of the fleet lease protocol.

The coordinator and the worker node speak JSON over four routes of the
service HTTP server (see docs/fleet.md for the full lifecycle)::

    POST /fleet/v1/lease      {"worker", "max_jobs"?, "wait"?}
                              -> {"leases": [lease...], "draining": bool}
    POST /fleet/v1/heartbeat  {"worker", "leases": [id...]}
                              -> {"extended": [id...], "unknown": [id...]}
    POST /fleet/v1/complete   {"worker", "lease", "ok", "payload"? |
                               "kind"? + "message"?, "snapshot"?}
                              -> {"status": "accepted" | "requeued" |
                                  "failed" | "stale"}
    GET  /fleet/v1/workers    -> {"workers": [...], "pending", "leased"}

One lease grant is::

    {"lease": "<id>", "key": "<request key>", "attempt": n,
     "deadline_s": <ttl>, "heartbeat_s": <period>,
     "job": <repro.harness.wire.job_to_wire dict>,
     "trace": <TraceContext.to_wire dict>|None, # cross-node tracing
     "tracing": bool}                           # deep capture requested

The job travels in the :mod:`repro.harness.wire` form, so the worker
executes exactly the :class:`~repro.harness.runner.SuiteJob` the
coordinator built — the bitwise-parity guarantee of the whole fleet.

The fleet's knobs (``REPRO_FLEET_*``) are declared in :mod:`repro.envcfg`
and read with :func:`repro.envcfg.resolve`.
"""

#: Version of the lease/heartbeat/complete message shapes.
FLEET_PROTOCOL_VERSION = 1

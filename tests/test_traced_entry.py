"""The ledger's traced launcher still finds every name it patches.

``benchmarks/ledger/traced_entry.py`` wraps service, fleet and solver
entry points by name.  A rename in ``src/`` would otherwise surface
only when the ledger's traced pass runs; here ``install`` runs against
a recorder that hands each function back unchanged, so a missing name
fails as an ``AttributeError`` and nothing is actually patched.
"""

import pathlib

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


class _Unchanged:
    """A span recorder whose ``wrap`` returns its function as it is."""

    def __init__(self):
        self.names = []

    def wrap(self, func, name, call_attrs=None, result_attrs=None):
        self.names.append(name)
        return func


def test_install_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(LEDGER))
    import traced_entry

    recorder = _Unchanged()
    assert traced_entry.install(recorder) == len(recorder.names)
    assert {"jobs.submit", "runner.run_jobs", "encode", "fleet.wire",
            "fleet.lease", "fleet.complete", "fleet.heartbeat",
            "server.route"} <= set(recorder.names)

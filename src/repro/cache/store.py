"""Content-keyed on-disk artifact store.

Layout (all inside one *namespace* directory, so :meth:`ArtifactCache.clear`
can never touch anything else)::

    <root>/<namespace>/<key[:2]>/<key>.json   # schema + meta + payload
    <root>/<namespace>/<key[:2]>/<key>.npz    # optional numpy arrays

``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-gpp``;
setting ``REPRO_CACHE=0`` (or ``off``/``false``/``no``) disables every
read and write so a run can be forced cold.  Keys come from
:func:`cache_key` — a sha256 over canonical JSON of the artifact kind,
its generator + parameters, the cell-library fingerprint and
:data:`CACHE_SCHEMA_VERSION`, so any input that could change the bytes
of the artifact changes the key.

Every entry carries a payload checksum; a corrupted entry (truncated
file, bad JSON, schema drift, checksum or array mismatch) is counted,
deleted and reported as a miss — callers regenerate and overwrite.

Every read re-reads the entry file.  When its bytes equal bytes this
cache object already parsed and verified for the same key and kind, the
read returns that parse instead of parsing and checksumming again (a
memo of at most :data:`VERIFIED_MEMO_BYTES` raw bytes, least recently
read out first; entries with arrays are never memoized).  Any change on
disk is therefore seen on the next read, and a memoized read counts
exactly as a cold one.  The returned payload and meta are shared between
readers: treat them as read-only.

Hit/miss/write/corrupt counts are kept on :attr:`ArtifactCache.stats`
and mirrored into the process metrics registry (``cache.*``) whenever
observability is enabled.
"""

import hashlib
import io
import json
import os
import shutil
import threading
import uuid
from collections import OrderedDict

import numpy as np

from repro import envcfg
from repro.obs import OBS

#: Version of the on-disk entry layout *and* of the artifact-producing
#: code. Part of every cache key: bump it whenever synthesis, placement
#: or serialization output changes so stale artifacts can never be
#: replayed into newer code.
CACHE_SCHEMA_VERSION = 1

#: Bound on the raw entry bytes an :class:`ArtifactCache` keeps parsed
#: and verified (see the module docstring); a larger entry is not kept.
VERIFIED_MEMO_BYTES = 4 * 1024 * 1024


def cache_enabled(environ=None):
    """Whether the on-disk cache is globally enabled (``REPRO_CACHE``)."""
    return not envcfg.flag_disabled("REPRO_CACHE", environ)


def default_cache_root(environ=None):
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-gpp``."""
    env = envcfg.raw("REPRO_CACHE_DIR", environ)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-gpp")


def canonical_jsonable(value):
    """Recursively convert ``value`` into plain JSON-able Python types.

    Sweep and benchmark code routinely builds generator parameters out
    of numpy scalars (``np.int64`` widths from ``np.arange``, ``np.
    float64`` knobs) which ``json.dumps`` rejects with ``TypeError``.
    This canonicalization maps numpy integers/floats/bools to their
    Python equivalents (so ``np.int64(16)`` and ``16`` produce the same
    cache key), arrays to nested lists, tuples to lists, and applies the
    same treatment to dictionary keys.
    """
    if isinstance(value, dict):
        return {
            canonical_jsonable(key) if not isinstance(key, str) else key:
                canonical_jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return canonical_jsonable(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def cache_key(kind, generator, params, library_hash):
    """Content key: sha256 over canonical JSON of every input.

    Parameters
    ----------
    kind:
        Artifact kind (``"netlist"``, ...); namespaces the key space.
    generator:
        What produced the artifact (e.g. ``["kogge_stone_adder",
        {"width": 16}]``) — JSON-able, canonicalized with sorted keys
        (numpy scalars/arrays are converted via
        :func:`canonical_jsonable`, so e.g. an ``np.int64`` width yields
        the same key as the plain ``int``).
    params:
        Remaining knobs (e.g. the synthesis options) — JSON-able.
    library_hash:
        :func:`repro.netlist.serialize.library_fingerprint` of the cell
        library the artifact was built against.
    """
    blob = json.dumps(
        canonical_jsonable(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "kind": kind,
                "generator": generator,
                "params": params,
                "library": library_hash,
            }
        ),
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _payload_checksum(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ArtifactCache:
    """One namespace of the on-disk store; see the module docstring."""

    def __init__(self, root=None, namespace="repro"):
        if not namespace or os.sep in namespace or namespace in (".", ".."):
            raise ValueError(f"invalid cache namespace {namespace!r}")
        self.root = root if root is not None else default_cache_root()
        self.namespace = namespace
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}
        # key -> (kind, raw bytes, payload, meta), least recently read first.
        self._memo = OrderedDict()
        self._memo_bytes = 0
        self._memo_lock = threading.Lock()

    @property
    def path(self):
        """The namespace directory every entry lives under."""
        return os.path.join(self.root, self.namespace)

    @property
    def enabled(self):
        return cache_enabled()

    def _count(self, event, amount=1):
        self.stats[event] += amount
        if OBS.enabled:
            OBS.metrics.counter(f"cache.{event}").inc(amount)

    def _entry_paths(self, key):
        shard = os.path.join(self.path, key[:2])
        return os.path.join(shard, f"{key}.json"), os.path.join(shard, f"{key}.npz")

    def _forget(self, key):
        with self._memo_lock:
            known = self._memo.pop(key, None)
            if known is not None:
                self._memo_bytes -= len(known[1])

    def _remember(self, key, kind, raw, payload, meta):
        if len(raw) > VERIFIED_MEMO_BYTES:
            return
        with self._memo_lock:
            known = self._memo.pop(key, None)
            if known is not None:
                self._memo_bytes -= len(known[1])
            self._memo[key] = (kind, raw, payload, meta)
            self._memo_bytes += len(raw)
            while self._memo_bytes > VERIFIED_MEMO_BYTES:
                _key, evicted = self._memo.popitem(last=False)
                self._memo_bytes -= len(evicted[1])

    def _drop_entry(self, key):
        self._forget(key)
        for path in self._entry_paths(key):
            try:
                os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def put(self, key, kind, payload, arrays=None, meta=None):
        """Store a JSON payload (and optional numpy arrays) under ``key``.

        Writes are atomic (per-writer temp file + rename) so a crashed
        writer leaves no half-entry behind and concurrent workers
        racing on the same key each complete their own rename — last
        writer wins with identical content, since keys are content
        addresses.  A reader that still catches a torn entry falls back
        to regeneration via the corruption path.
        """
        if not self.enabled:
            return None
        json_path, npz_path = self._entry_paths(key)
        os.makedirs(os.path.dirname(json_path), exist_ok=True)
        suffix = f".{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        if arrays:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            tmp = npz_path + suffix
            with open(tmp, "wb") as handle:
                handle.write(buffer.getvalue())
            os.replace(tmp, npz_path)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "meta": meta or {},
            "checksum": _payload_checksum(payload),
            "arrays": sorted(arrays) if arrays else [],
            "payload": payload,
        }
        tmp = json_path + suffix
        with open(tmp, "w") as handle:
            # One dumps and one write: json.dump streams through the
            # pure-Python encoder, several times slower; same text.
            handle.write(json.dumps(entry))
        os.replace(tmp, json_path)
        self._count("writes")
        return json_path

    def get(self, key, kind):
        """Load ``(payload, arrays)`` for ``key`` or ``None`` on miss.

        Any corruption — unreadable JSON, schema or kind drift, payload
        checksum mismatch, missing/undecodable array file — deletes the
        entry and reports a miss, so callers always regenerate cleanly.
        """
        entry = self.get_entry(key, kind)
        if entry is None:
            return None
        payload, arrays, _meta = entry
        return payload, arrays

    def get_entry(self, key, kind):
        """Like :meth:`get` but returns ``(payload, arrays, meta)``.

        ``meta`` is whatever dict :meth:`put` stored alongside the
        payload — the service's ECO route uses it to recover the
        canonical request a stored result answered.  ``payload`` and
        ``meta`` may be the objects an earlier read returned (the
        verified-bytes memo; see the module docstring): do not mutate
        them.
        """
        if not self.enabled:
            return None
        json_path, npz_path = self._entry_paths(key)
        try:
            with open(json_path, "rb", buffering=0) as handle:
                raw = handle.readall()
        except FileNotFoundError:
            self._forget(key)
            self._count("misses")
            return None
        except OSError:
            self._count("corrupt")
            self._count("misses")
            self._drop_entry(key)
            return None
        with self._memo_lock:
            known = self._memo.get(key)
            if known is not None and known[0] == kind and known[1] == raw:
                self._memo.move_to_end(key)
            else:
                known = None
        if known is not None:
            self._count("hits")
            return known[2], {}, known[3]
        try:
            entry = json.loads(raw)
            if entry["schema"] != CACHE_SCHEMA_VERSION or entry["kind"] != kind:
                raise ValueError("schema or kind drift")
            payload = entry["payload"]
            if entry["checksum"] != _payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
            arrays = {}
            if entry.get("arrays"):
                with np.load(npz_path) as data:
                    for name in entry["arrays"]:
                        arrays[name] = np.array(data[name])
        except (KeyError, TypeError, ValueError, OSError):
            self._count("corrupt")
            self._count("misses")
            self._drop_entry(key)
            return None
        meta = entry.get("meta", {})
        if not arrays:
            self._remember(key, kind, raw, payload, meta)
        self._count("hits")
        return payload, arrays, meta

    # ------------------------------------------------------------------
    def entries(self):
        """Iterate over entry records (no payloads): one dict per entry.

        Each record carries ``key``, ``kind`` (``None`` when the entry
        JSON is unreadable — garbage collection treats those as
        droppable), ``meta`` (the dict :meth:`put` stored), ``mtime``
        (seconds since the epoch of the entry file) and ``bytes``
        (entry file + array file).  Ordering is unspecified.
        """
        if not os.path.isdir(self.path):
            return
        for dirpath, _dirnames, filenames in os.walk(self.path):
            for filename in sorted(filenames):
                if not filename.endswith(".json"):
                    continue
                key = filename[:-len(".json")]
                json_path = os.path.join(dirpath, filename)
                npz_path = os.path.join(dirpath, f"{key}.npz")
                record = {"key": key, "kind": None, "meta": {}}
                try:
                    record["mtime"] = os.path.getmtime(json_path)
                    record["bytes"] = os.path.getsize(json_path)
                except OSError:
                    continue  # deleted underneath us
                try:
                    record["bytes"] += os.path.getsize(npz_path)
                except OSError:
                    pass
                try:
                    with open(json_path) as handle:
                        entry = json.load(handle)
                    record["kind"] = entry.get("kind")
                    meta = entry.get("meta")
                    if isinstance(meta, dict):
                        record["meta"] = meta
                except (OSError, ValueError):
                    pass  # unreadable: record stays kind=None
                yield record

    def remove(self, key):
        """Delete one entry outright; ``True`` when a file existed."""
        json_path, npz_path = self._entry_paths(key)
        existed = os.path.exists(json_path) or os.path.exists(npz_path)
        self._drop_entry(key)
        return existed

    # ------------------------------------------------------------------
    def info(self):
        """Entry count, total bytes and per-kind breakdown of the namespace."""
        entries = 0
        total_bytes = 0
        kinds = {}
        if os.path.isdir(self.path):
            for dirpath, _dirnames, filenames in os.walk(self.path):
                for filename in filenames:
                    full = os.path.join(dirpath, filename)
                    try:
                        total_bytes += os.path.getsize(full)
                    except OSError:
                        continue
                    if filename.endswith(".json"):
                        entries += 1
                        try:
                            with open(full) as handle:
                                kind = json.load(handle).get("kind", "?")
                        except (OSError, ValueError):
                            kind = "corrupt"
                        kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "path": self.path,
            "enabled": self.enabled,
            "entries": entries,
            "bytes": total_bytes,
            "kinds": kinds,
            "stats": dict(self.stats),
        }

    def clear(self):
        """Remove the namespace directory (and nothing outside it).

        Returns the number of entries removed.  The cache root itself —
        which other tools may share — is left untouched.
        """
        removed = self.info()["entries"]
        shutil.rmtree(self.path, ignore_errors=True)
        return removed

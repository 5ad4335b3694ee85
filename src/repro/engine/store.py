"""Disk-persistent, content-addressed verdict/chase store.

The in-memory :class:`~repro.engine.cache.MemoCache`s make a *single*
run cheap: thousands of near-identical chase and homomorphism calls
collapse onto one computation each.  But every run — every CI job,
every re-sweep of the catalog — rebuilds those caches from nothing.
This module adds a second level below them: a SQLite-backed
:class:`VerdictStore` keyed by exactly the canonical content keys the
memo caches already use (canonical instance forms plus
:func:`~repro.engine.cache.mapping_key`), shared across runs, shards,
and CI jobs.

Layering contract:

* the memo caches stay the first level — a store probe happens only on
  a memory miss, and a store hit is immediately promoted back into the
  memory cache, so hot loops never touch the disk twice for one key;
* writes are *write-through but buffered*: ``put`` into a persistent
  cache enqueues the entry, and batches land in one SQLite transaction
  every ``flush_interval`` entries (and at sweep/process end), so the
  store can keep up with verdict-rate traffic;
* the store is a **cache, never an authority**: any SQLite error
  (locked database, read-only filesystem, disk full) is swallowed and
  counted per direction (``store_write_errors`` / ``store_read_errors``
  in ``--engine-stats``), and the sweep proceeds on computation alone;
* every row carries a SHA-256 **integrity checksum** (over cache name,
  key digest, payload, and engine stamp — see :func:`entry_checksum`);
  a row that fails verification or decoding is moved to a
  ``quarantine`` table, counted (``store_integrity_errors`` /
  ``store_quarantined``), and served as a miss, so a flipped bit or a
  torn write degrades to recomputation, never to a wrong verdict.
  ``python -m repro.cli fsck --store PATH`` audits and repairs offline
  (:mod:`repro.engine.fsck`);
* multi-process safety comes from SQLite itself (WAL journal, busy
  timeout, ``INSERT OR REPLACE`` upserts in short transactions) plus a
  fork guard: a connection is never used across a ``fork`` — workers
  detect the pid change, drop the parent's pending buffer (the parent
  flushes its own) and lock, and reopen;
* thread safety (the service daemon's concurrent jobs share the
  installed store) comes from one lock serializing the connection —
  opened with ``check_same_thread=False`` — and the pending buffer;
* every store carries an **engine version** (:data:`ENGINE_VERSION`).
  Opening a store written by a different engine version atomically
  drops its entries — canonical forms, key layouts, and value codecs
  may have changed, and a stale entry must never be served.

Only caches with a registered value codec persist: ``chase`` (values
are :class:`~repro.datamodel.instances.Instance`, serialized with
:mod:`repro.export.serialization`; cores of universal solutions ride
along under their own key head) and ``verdict`` (booleans: ∼M
verdicts, and round-trip soundness and faithfulness, which persist as
two booleans per instance).  The ``derived`` cache of mappings derived
from mappings (QuasiInverse, Inverse, materialized expressions) has no
codec and stays process-local: a warm process reuses them, a new
process derives them once.  The sql backend's compiled premises
(``compile``) are process-local by nature and are deliberately not
persisted.

The process default store comes from ``REPRO_STORE``, read once at
import, or the CLI's and the daemon's ``--store PATH`` through
:func:`~repro.engine.context.set_defaults`; every memo cache in the
process writes through to it.  The :func:`use_store` context manager
overrides it on one thread for a block: inside ``use_store(path)`` the
default is ignored, and ``use_store(None)`` is guaranteed cold even
when one is set.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.engine import faults
from repro.engine.context import scope

#: Bump whenever cache key derivation, canonical forms, key digests,
#: or value codecs change semantics: a store written by another engine
#: version is dropped on open, never reinterpreted.
ENGINE_VERSION = "2026.10-mapping-digests"

_BUSY_TIMEOUT_SECONDS = 5.0


# -- stable content digests ------------------------------------------------


#: Memo of composite-part encodings, keyed by the part itself.  The
#: same canonical instance forms recur in thousands of distinct memo
#: keys per sweep, and re-walking them atom by atom dominated warm
#: store probes.  The memo is keyed by ``==``/``hash`` — exactly the
#: equality the in-memory :class:`~repro.engine.cache.MemoCache`
#: already uses for its keys — so the encoding must be (and is) a
#: function of the equality class: booleans encode as their integer
#: value because ``True == 1`` is one memo key either way.
_ENCODE_MEMO: Dict[Any, str] = {}
_ENCODE_MEMO_MAX = 1 << 20


def _encode(part: Any, out: list) -> None:
    """Append a canonical, process-independent encoding of *part*.

    Handles the shapes that occur in memo-cache keys: primitives,
    tuples, frozensets (encoded sorted, so iteration order cannot
    leak in), datamodel objects exposing ``sort_key()`` (terms and
    atoms), which are encoded through that deterministic key, and
    dataclass instances (dependencies and their premises), encoded
    field by field through this same function.  Nothing in a key may
    go through ``repr``: a premise's ``Constant()`` set is a
    frozenset, and ``repr`` prints it in iteration order, which
    follows ``PYTHONHASHSEED`` — the digest would then differ between
    two processes holding the same key."""
    if isinstance(part, str):
        out.append("s:" + part)
    elif isinstance(part, (bool, int)):
        out.append(f"i:{int(part)}")
    elif part is None:
        out.append("z")
    elif (
        isinstance(part, (tuple, list, frozenset, set))
        or hasattr(part, "sort_key")
        or is_dataclass(part)
    ):
        out.append(_encode_composite(part))
    else:
        # Last resort: repr, for scalars such as floats whose repr
        # does not depend on the process.
        out.append("r:" + repr(part))


def _encode_composite(part: Any) -> str:
    """Encode one composite part, memoized when hashable."""
    hashable = True
    try:
        cached = _ENCODE_MEMO.get(part)
    except TypeError:
        hashable, cached = False, None
    if cached is not None:
        return cached
    out: list = []
    if isinstance(part, (tuple, list)):
        out.append("(")
        for item in part:
            _encode(item, out)
        out.append(")")
    elif isinstance(part, (frozenset, set)):
        encoded = []
        for item in part:
            nested: list = []
            _encode(item, nested)
            encoded.append("\x1d".join(nested))
        out.append("{")
        out.extend(sorted(encoded))
        out.append("}")
    elif hasattr(part, "sort_key"):
        out.append(f"k:{type(part).__name__}:")
        _encode(part.sort_key(), out)
    else:
        # the fields equality compares, in declaration order
        out.append(f"d:{type(part).__name__}:")
        for item in fields(part):
            if item.compare:
                _encode(getattr(part, item.name), out)
    result = "\x1f".join(out)
    if hashable:
        if len(_ENCODE_MEMO) >= _ENCODE_MEMO_MAX:
            _ENCODE_MEMO.clear()
        _ENCODE_MEMO[part] = result
    return result


def stable_digest(key: Any) -> str:
    """A stable hex digest of a memo-cache key (or any nesting of
    tuples / frozensets / terms / atoms / dependencies).  Equal keys
    digest equally in every process, whatever its ``PYTHONHASHSEED``:
    the encoding (:func:`_encode`) never reads a set's iteration order
    or a ``hash()``."""
    out: list = []
    _encode(key, out)
    return hashlib.sha256("\x1f".join(out).encode()).hexdigest()


def entry_checksum(cache_name: str, digest: str, payload: str, engine: str) -> str:
    """The per-row integrity checksum stored beside every entry.

    Covers the cache name, the key digest, the encoded payload, *and*
    the engine-version stamp, so a bit flip anywhere in a row — or a
    row transplanted between caches or keys — fails verification."""
    material = "\x1f".join((cache_name, digest, payload, engine))
    return hashlib.sha256(material.encode()).hexdigest()


# -- value codecs ----------------------------------------------------------


def _instance_encode(value: Any) -> str:
    from repro.export.serialization import instance_to_json

    return json.dumps(
        instance_to_json(value), sort_keys=True, separators=(",", ":")
    )


def _instance_decode(payload: str) -> Any:
    from repro.export.serialization import instance_from_json

    return instance_from_json(json.loads(payload))


def _bool_encode(value: Any) -> str:
    return "1" if value else "0"


def _bool_decode(payload: str) -> bool:
    return payload == "1"


#: cache name -> (encode, decode).  Only these caches persist.
_CODECS: Dict[str, Tuple[Callable[[Any], str], Callable[[str], Any]]] = {
    "chase": (_instance_encode, _instance_decode),
    "verdict": (_bool_encode, _bool_decode),
}


# -- the store -------------------------------------------------------------


@dataclass
class StoreStats:
    """Point-in-time counters for one :class:`VerdictStore`."""

    path: str
    hits: int
    misses: int
    writes: int
    write_errors: int
    read_errors: int
    integrity_errors: int
    quarantined: int
    entries: int

    def counters(self) -> Dict[str, int]:
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_writes": self.writes,
            "store_write_errors": self.write_errors,
            "store_read_errors": self.read_errors,
            "store_integrity_errors": self.integrity_errors,
            "store_quarantined": self.quarantined,
            "store_entries": self.entries,
        }

    def render(self) -> str:
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (
            f"store {os.path.basename(self.path):<16} {self.hits:>8} hits  "
            f"{self.misses:>8} misses  ({rate:>6.1%})  "
            f"{self.writes} writes  {self.entries} entries"
            + (f"  {self.write_errors} write errors" if self.write_errors else "")
            + (f"  {self.read_errors} read errors" if self.read_errors else "")
            + (
                f"  {self.quarantined} quarantined"
                if self.quarantined
                else ""
            )
        )


class VerdictStore:
    """On-disk second level for the content-addressed memo caches.

    See the module docstring for the layering and safety contract.
    The object is cheap to construct; the SQLite file is created (and
    version-checked) on first use.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        engine_version: str = ENGINE_VERSION,
        flush_interval: int = 512,
    ) -> None:
        self.path = os.fspath(path)
        self.engine_version = engine_version
        self.flush_interval = max(1, int(flush_interval))
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        self.read_errors = 0
        self.integrity_errors = 0
        self.quarantined = 0
        self._pending: Dict[Tuple[str, str], str] = {}
        self._connection: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        # Reentrant: flush runs inside save, _connect inside every call.
        self._lock = threading.RLock()

    # -- connection management ----------------------------------------

    def _fork_guard(self) -> None:
        """Drop state inherited across a ``fork``: the parent's
        connection must never be used by the child, and the parent's
        pending buffer belongs to the parent (which flushes it
        itself).  Runs at every store entry point, before the lock is
        taken — not only when a connection is first needed — so entries
        the *child* buffers before its first ``_connect`` are never
        discarded with the inherited ones, and a lock some other parent
        thread held at the fork is replaced, never waited on."""
        if os.getpid() != self._pid:
            self._lock = threading.RLock()
            self._connection = None
            self._pending = {}
            self._pid = os.getpid()

    def _connect(self) -> Optional[sqlite3.Connection]:
        """The live connection, reopened after a fork, or ``None``
        when the store file is unusable (never raised; callers count
        the failure in the direction they were going)."""
        self._fork_guard()
        if self._connection is not None:
            return self._connection
        try:
            connection = sqlite3.connect(
                self.path, timeout=_BUSY_TIMEOUT_SECONDS, check_same_thread=False
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            with connection:  # one transaction: schema + version gate
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " cache TEXT NOT NULL,"
                    " key TEXT NOT NULL,"
                    " value TEXT NOT NULL,"
                    " checksum TEXT NOT NULL DEFAULT '',"
                    " engine TEXT NOT NULL DEFAULT '',"
                    " PRIMARY KEY (cache, key))"
                )
                # Stores created before the integrity columns existed
                # only lack the columns, not the data contract: the
                # engine-version gate below drops their rows anyway.
                columns = {
                    row[1]
                    for row in connection.execute("PRAGMA table_info(entries)")
                }
                for column in ("checksum", "engine"):
                    if column not in columns:
                        connection.execute(
                            f"ALTER TABLE entries ADD COLUMN {column}"
                            " TEXT NOT NULL DEFAULT ''"
                        )
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS quarantine ("
                    " cache TEXT NOT NULL,"
                    " key TEXT NOT NULL,"
                    " value TEXT NOT NULL,"
                    " checksum TEXT NOT NULL,"
                    " engine TEXT NOT NULL,"
                    " reason TEXT NOT NULL,"
                    " PRIMARY KEY (cache, key))"
                )
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS meta ("
                    " k TEXT PRIMARY KEY, v TEXT NOT NULL)"
                )
                row = connection.execute(
                    "SELECT v FROM meta WHERE k = 'engine_version'"
                ).fetchone()
                if row is None or row[0] != self.engine_version:
                    # Another engine's canonical forms: drop, restamp.
                    connection.execute("DELETE FROM entries")
                    connection.execute(
                        "INSERT OR REPLACE INTO meta (k, v)"
                        " VALUES ('engine_version', ?)",
                        (self.engine_version,),
                    )
        except sqlite3.Error:
            return None
        self._connection = connection
        return connection

    # -- the MemoCache-facing protocol ---------------------------------

    def persists(self, cache_name: str) -> bool:
        """Does this store persist entries of the named cache?"""
        return cache_name in _CODECS

    def load(self, cache_name: str, key: Any) -> Tuple[bool, Any]:
        """Probe the store for a memo key: ``(hit, decoded value)``.

        Rows read from disk are verified against their per-entry
        checksum before decoding; any failure — torn value, flipped
        bit, transplanted row, undecodable payload — quarantines the
        row and is served as a miss, so the engine recomputes instead
        of trusting (or crashing on) corrupt state."""
        codec = _CODECS.get(cache_name)
        if codec is None:
            return False, None
        self._fork_guard()
        digest = stable_digest(key)
        with self._lock:
            payload = self._pending.get((cache_name, digest))
            from_disk = False
            checksum = engine = ""
            if payload is None:
                if faults.fire("store.read") is not None:
                    self.read_errors += 1
                    return False, None
                connection = self._connect()
                if connection is None:
                    self.read_errors += 1
                    return False, None
                try:
                    row = connection.execute(
                        "SELECT value, checksum, engine FROM entries"
                        " WHERE cache = ? AND key = ?",
                        (cache_name, digest),
                    ).fetchone()
                except sqlite3.Error:
                    self.read_errors += 1
                    return False, None
                if row is not None:
                    payload, checksum, engine = row
                    from_disk = True
            if payload is None:
                self.misses += 1
                return False, None
            if from_disk and checksum != entry_checksum(
                cache_name, digest, payload, engine
            ):
                self._degrade_corrupt(cache_name, digest, payload, "checksum mismatch")
                return False, None
            try:
                value = codec[1](payload)
            except Exception:
                # A corrupt entry is a miss, not a crash.
                if from_disk:
                    self._degrade_corrupt(
                        cache_name, digest, payload, "undecodable payload"
                    )
                else:
                    self.misses += 1
                return False, None
            self.hits += 1
            return True, value

    def _degrade_corrupt(
        self, cache_name: str, digest: str, payload: str, reason: str
    ) -> None:
        """A corrupt on-disk row: count it, quarantine it, serve a miss.

        The row is moved into the ``quarantine`` table (best effort —
        a locked database just leaves it in place for the next probe or
        ``fsck``), so corruption is never silently destroyed and never
        served again."""
        self.misses += 1
        self.read_errors += 1
        self.integrity_errors += 1
        connection = self._connect()
        if connection is None:
            return
        try:
            with connection:
                connection.execute(
                    "INSERT OR REPLACE INTO quarantine"
                    " (cache, key, value, checksum, engine, reason)"
                    " SELECT cache, key, value, checksum, engine, ?"
                    " FROM entries WHERE cache = ? AND key = ?",
                    (reason, cache_name, digest),
                )
                connection.execute(
                    "DELETE FROM entries WHERE cache = ? AND key = ?",
                    (cache_name, digest),
                )
        except sqlite3.Error:
            return
        self.quarantined += 1

    def save(self, cache_name: str, key: Any, value: Any) -> None:
        """Enqueue a write-through entry; lands at the next flush."""
        codec = _CODECS.get(cache_name)
        if codec is None:
            return
        self._fork_guard()
        with self._lock:
            self._pending[(cache_name, stable_digest(key))] = codec[0](value)
            if len(self._pending) >= self.flush_interval:
                self.flush()

    def flush(self) -> None:
        """Write pending entries in one transaction (best effort)."""
        self._fork_guard()
        with self._lock:
            if not self._pending:
                return
            connection = None
            if faults.fire("store.write") is None:
                connection = self._connect()
            if connection is None:
                self.write_errors += 1
                # Keep the buffer bounded even when the disk is gone.
                if len(self._pending) >= 4 * self.flush_interval:
                    self._pending.clear()
                return
            batch = [
                (
                    cache_name,
                    digest,
                    payload,
                    entry_checksum(cache_name, digest, payload, self.engine_version),
                    self.engine_version,
                )
                for (cache_name, digest), payload in self._pending.items()
            ]
            try:
                with connection:
                    connection.executemany(
                        "INSERT OR REPLACE INTO entries"
                        " (cache, key, value, checksum, engine)"
                        " VALUES (?, ?, ?, ?, ?)",
                        batch,
                    )
            except sqlite3.Error:
                self.write_errors += 1
                return
            self.writes += len(batch)
            self._pending.clear()

    def close(self) -> None:
        self._fork_guard()
        with self._lock:
            self.flush()
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    # -- introspection -------------------------------------------------

    def entry_count(self) -> int:
        self._fork_guard()
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                row = connection.execute("SELECT COUNT(*) FROM entries").fetchone()
            except sqlite3.Error:
                return 0
            return int(row[0]) + len(self._pending)

    def quarantine_count(self) -> int:
        """Rows moved to the quarantine table (by loads or ``fsck``)."""
        self._fork_guard()
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                row = connection.execute(
                    "SELECT COUNT(*) FROM quarantine"
                ).fetchone()
            except sqlite3.Error:
                return 0
            return int(row[0])

    def stats(self) -> StoreStats:
        return StoreStats(
            self.path,
            self.hits,
            self.misses,
            self.writes,
            self.write_errors,
            self.read_errors,
            self.integrity_errors,
            self.quarantined,
            self.entry_count(),
        )


# -- ambient store ---------------------------------------------------------


@contextmanager
def use_store(
    store: Union[VerdictStore, str, os.PathLike, None]
) -> Iterator[Optional[VerdictStore]]:
    """Make *store* (a :class:`VerdictStore` or a path) the memo
    caches' second level on this thread, and in the pool workers its
    sweeps fork, for the enclosed block; flushes it on exit.  ``None``
    disables the store for the block — guaranteed cold even when a
    process default store is set."""
    opened: Optional[VerdictStore]
    if store is None or isinstance(store, VerdictStore):
        opened = store
    else:
        opened = VerdictStore(store)
    try:
        with scope(store=opened):
            yield opened
    finally:
        if opened is not None:
            opened.flush()


__all__ = [
    "ENGINE_VERSION",
    "StoreStats",
    "VerdictStore",
    "entry_checksum",
    "stable_digest",
    "use_store",
]

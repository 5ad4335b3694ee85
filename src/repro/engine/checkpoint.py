"""Checkpoint journal: resumable, shardable sweeps over instance universes.

Every sweep the checkers run is a deterministic fold over an ordered
universe, so progress is fully described by *how far the fold got*.
A :class:`CheckpointJournal` persists, per check key:

* ``verified_upto`` — the number of leading universe items whose
  verdicts are final;
* ``ok`` and ``violations`` — the verdict accumulated over that
  prefix (violator *instances* are not serialized, only their count;
  a resumed report's violator tuple therefore lists post-resume
  violators only, which the report's ``resumed_from`` note records);
* ``total`` and ``fingerprint`` — sanity guards: a journal entry is
  only honoured when the sweep being resumed has the same length and
  derivation key (the fingerprint digests the sweep's actual content
  — mapping dependencies, universe, mode), otherwise it is discarded
  and the sweep restarts.  A journal from a different mapping or
  universe that happens to have the same length can never be
  silently honoured.

The journal file is JSON, rewritten atomically (temp file + rename)
every ``interval`` recorded items and at completion/interruption, so
a SIGKILL of the whole process loses at most one interval of work.
Flushing is best-effort: a failed rewrite never breaks the sweep, but
it is *counted* (the engine counter ``checkpoint_dropped_flushes``,
surfaced by ``--engine-stats``) and its temp file is cleaned up.

Integrity: every entry is written with a ``sig`` field — a SHA-256
signature over the entry's content, its key, and the engine version
(:func:`entry_signature`) — and the file carries a ``__meta__`` record
with a whole-file checksum.  On reload, a torn or truncated file, a
mismatched file checksum, or an entry whose signature fails (bit flip,
hand edit, another engine version) is *dropped and counted* (the
engine counter ``checkpoint_corrupt_entries``, in
``--engine-stats``): the sweep restarts that prefix instead of
resuming onto corrupt progress.  ``python -m repro.cli fsck
--checkpoint PATH`` audits and repairs offline.

Sharded sweeps extend the journal with per-shard entries
(:func:`shard_entry_key`) and *lease records*: sidecar lock files
through which cooperating processes claim disjoint shards
(:meth:`CheckpointJournal.claim_shard`).  A lease expires after its
TTL, so the shard of a straggler or a dead worker can be *stolen* and
re-run by whoever notices — re-running is safe because shard sweeps
are deterministic and their chase/verdict traffic is deduplicated by
the content-addressed store.

The process default journal comes from ``REPRO_CHECKPOINT`` (journal
path) and ``REPRO_RESUME`` (honour previous entries instead of
restarting), or the CLI's ``--checkpoint`` / ``--resume``; checkers
pick it up via :func:`default_journal`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine import faults
from repro.engine.context import CONTEXT
from repro.engine.instrumentation import engine_stats

#: Reserved journal key for the file-level integrity record; never a
#: sweep entry.
JOURNAL_META_KEY = "__meta__"


def entry_signature(key: str, entry: Dict[str, Any]) -> str:
    """The per-entry integrity signature stored in ``entry["sig"]``.

    Covers the entry's content (minus the signature itself), the
    journal key it is filed under, and the engine version — so a
    flipped bit, a transplanted entry, or progress recorded by an
    incompatible engine all fail verification and the prefix restarts.
    """
    from repro.engine.store import ENGINE_VERSION

    material = json.dumps(
        {k: v for k, v in entry.items() if k != "sig"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(
        f"{key}\x1f{material}\x1f{ENGINE_VERSION}".encode()
    ).hexdigest()


def state_checksum(state: Dict[str, Dict[str, Any]]) -> str:
    """Whole-file checksum over the journal's sweep entries (the
    ``__meta__`` record is excluded — it carries this value)."""
    material = json.dumps(
        {k: v for k, v in state.items() if k != JOURNAL_META_KEY},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def sweep_key(*parts: Any) -> str:
    """A stable content key for one sweep (checker name, mapping
    names, universe size, ...).  Stable across processes and runs —
    no reliance on randomized ``hash()``."""
    digest = hashlib.sha1("\x1f".join(str(part) for part in parts).encode())
    return digest.hexdigest()[:16]


def shard_entry_key(base_key: str, shard_id: int, shards: int) -> str:
    """The journal key of one shard of a sharded sweep."""
    return f"{base_key}:s{shard_id}of{shards}"


def _verified_entries(path: str) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """The sweep entries of the journal file at *path* that pass the
    integrity checks, and how many entries (or whole files) failed
    them.  A missing file reads as no entries and no failures."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError:
        return {}, 0
    try:
        loaded = json.loads(raw)
    except ValueError:
        # Torn or truncated mid-write: nothing on disk is trusted.
        return {}, 1
    if not isinstance(loaded, dict):
        return {}, 1
    meta = loaded.pop(JOURNAL_META_KEY, None)
    if (
        isinstance(meta, dict)
        and meta.get("checksum") is not None
        and meta["checksum"] != state_checksum(loaded)
    ):
        # The file-level checksum catches edits that keep every
        # entry internally consistent (e.g. a deleted entry).
        return {}, 1
    entries: Dict[str, Dict[str, Any]] = {}
    corrupt = 0
    for key, entry in loaded.items():
        if not isinstance(entry, dict):
            continue
        if entry.get("sig") != entry_signature(key, entry):
            corrupt += 1
            continue
        entries[key] = entry
    return entries, corrupt


def journal_progress(path: str) -> int:
    """The verified prefix a resume from the journal file at *path*
    would honour, summed over its incomplete sweep entries; 0 when the
    file is absent.  An entry that fails the integrity checks counts
    nothing, as on resume; reading counts no corruption either, so a
    poller may call this as often as it likes."""
    entries, _corrupt = _verified_entries(path)
    return sum(
        int(entry.get("verified_upto", 0))
        for entry in entries.values()
        if not entry.get("complete")
    )


#: Default shard-lease time to live.  A worker that holds a shard
#: longer than this without completing it is treated as a straggler
#: and its shard becomes stealable.
DEFAULT_LEASE_TTL = 300.0


class CheckpointJournal:
    """Records verified prefixes of deterministic sweeps (see module
    docstring)."""

    def __init__(
        self, path: str, *, interval: int = 64, resume: bool = True
    ) -> None:
        self.path = path
        self.interval = max(1, int(interval))
        self.resume = resume
        self._state: Dict[str, Dict[str, Any]] = {}
        self._pending = 0
        if resume and os.path.exists(path):
            self.reload()

    def reload(self) -> None:
        """Re-read the journal file (peers may have flushed shard
        entries since we loaded).

        A missing file reads as empty; a torn/truncated file, a failed
        whole-file checksum, or an entry with a bad signature is
        *dropped and counted* — resuming onto corrupt progress would
        risk trusting a prefix that was never verified."""
        fresh, corrupt = _verified_entries(self.path)
        if corrupt:
            engine_stats().bump("checkpoint_corrupt_entries", corrupt)
        # Our own unflushed records win over what is on disk.
        fresh.update(self._state)
        self._state = fresh

    # -- resume ------------------------------------------------------

    def resume_index(
        self, key: str, total: int, fingerprint: Optional[str] = None
    ) -> int:
        """How many leading items of this sweep are already verified.

        An entry is honoured only when both sanity guards match: the
        sweep length *and* (when the caller supplies one) the sweep
        fingerprint.  An entry without a fingerprint never matches a
        fingerprinted resume — journals written before fingerprinting
        restart rather than risk resuming the wrong sweep.
        """
        entry = self._state.get(key)
        if not self.resume or entry is None:
            return 0
        if entry.get("total") != total:
            return 0  # the universe changed; the entry is stale
        if fingerprint is not None and entry.get("fingerprint") != fingerprint:
            return 0  # same length, different sweep: never honour it
        return min(int(entry.get("verified_upto", 0)), total)

    def prior_verdict(self, key: str) -> Dict[str, Any]:
        """The accumulated verdict over the resumed prefix."""
        entry = self._state.get(key, {})
        return {
            "ok": bool(entry.get("ok", True)),
            "violations": int(entry.get("violations", 0)),
        }

    def entry_complete(
        self, key: str, total: int, fingerprint: Optional[str] = None
    ) -> bool:
        """Is this sweep recorded as run to completion (with matching
        sanity guards)?"""
        entry = self._state.get(key)
        if entry is None or not entry.get("complete"):
            return False
        if entry.get("total") != total:
            return False
        if fingerprint is not None and entry.get("fingerprint") != fingerprint:
            return False
        return True

    # -- record ------------------------------------------------------

    def record(
        self,
        key: str,
        *,
        verified_upto: int,
        total: int,
        ok: bool,
        violations: int,
        fingerprint: Optional[str] = None,
        flush: bool = False,
    ) -> None:
        """Update a sweep's verified prefix; persists every
        ``interval`` calls or when *flush* is set."""
        entry = {
            "verified_upto": verified_upto,
            "total": total,
            "ok": ok,
            "violations": violations,
            "complete": verified_upto >= total,
            "fingerprint": fingerprint,
        }
        entry["sig"] = entry_signature(key, entry)
        self._state[key] = entry
        self._pending += 1
        if flush or self._pending >= self.interval:
            self.flush()

    def complete(
        self,
        key: str,
        *,
        total: int,
        ok: bool,
        violations: int,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.record(
            key,
            verified_upto=total,
            total=total,
            ok=ok,
            violations=violations,
            fingerprint=fingerprint,
            flush=True,
        )

    def flush(self) -> None:
        """Atomically rewrite the journal file.

        Best-effort by design — checkpointing must never break the
        sweep — but a failed flush is counted and its temp file
        removed, so repeated failures are visible in --engine-stats
        instead of silently littering the journal directory.
        """
        self._pending = 0
        if faults.fire("journal.flush") is not None:
            engine_stats().bump("checkpoint_dropped_flushes")
            return
        from repro.engine.store import ENGINE_VERSION

        payload: Dict[str, Any] = dict(self._state)
        payload[JOURNAL_META_KEY] = {
            "engine": ENGINE_VERSION,
            "checksum": state_checksum(self._state),
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        handle = None
        try:
            handle = tempfile.NamedTemporaryFile(
                "w",
                dir=directory,
                prefix=".repro-ckpt-",
                suffix=".tmp",
                delete=False,
                encoding="utf-8",
            )
            with handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(handle.name, self.path)
        except OSError:
            engine_stats().bump("checkpoint_dropped_flushes")
            if handle is not None:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass

    # -- shard leases ------------------------------------------------

    def _lease_path(self, base_key: str, shard_id: int, shards: int) -> str:
        return f"{self.path}.lease-{sweep_key(base_key)}-{shard_id}of{shards}"

    def claim_shard(
        self,
        base_key: str,
        shard_id: int,
        shards: int,
        *,
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> bool:
        """Try to claim one shard of a sharded sweep.

        A claim is an exclusive-create of the shard's lease file (the
        atomic primitive every shared filesystem provides).  It
        succeeds when no lease exists, when we already hold the lease,
        or when the incumbent's lease has expired — the work-stealing
        path: the shard of a straggler or dead worker is re-claimed by
        whoever gets here first.
        """
        path = self._lease_path(base_key, shard_id, shards)
        payload = json.dumps(
            {"owner": owner, "expires": time.time() + max(0.0, ttl)}
        )
        for _ in range(2):  # initial attempt + one retry after a steal
            try:
                descriptor = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                lease = self._read_lease(path)
                if lease is not None and lease.get("owner") == owner:
                    return True  # re-entrant: we already hold it
                if lease is not None and lease.get("expires", 0) > time.time():
                    return False  # live lease held by a peer
                if not self._steal_lease(path, owner):
                    return False
                continue  # retry the exclusive create
            except OSError:
                return False
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                return True
            except OSError:
                return False
        return False

    def _steal_lease(self, path: str, owner: str) -> bool:
        """Remove an expired lease so the exclusive create can retry.

        A blind ``unlink`` here would be a TOCTOU hole: between reading
        the expired lease and unlinking it, a peer can complete its own
        steal and write a fresh live lease, which the unlink would then
        destroy — two workers end up holding the same shard.  Instead
        the lease is renamed aside (atomic: exactly one racing stealer
        wins) and its payload re-checked *after* the rename; a lease
        that turned live in the window is put back and the steal lost.
        """
        aside = f"{path}.steal-{sweep_key(owner)}"
        try:
            os.replace(path, aside)
        except OSError:
            return False  # a racing stealer won the rename
        stolen = self._read_lease(aside)
        if (
            stolen is not None
            and stolen.get("owner") != owner
            and stolen.get("expires", 0) > time.time()
        ):
            # The lease changed hands between our read and the rename:
            # it is live and a peer's.  Restore it and lose the steal.
            try:
                os.replace(aside, path)
            except OSError:
                pass
            return False
        try:
            os.unlink(aside)
        except OSError:
            pass
        return True

    def release_shard(
        self, base_key: str, shard_id: int, shards: int, *, owner: str
    ) -> None:
        """Drop our lease on a shard (best effort; only our own)."""
        path = self._lease_path(base_key, shard_id, shards)
        lease = self._read_lease(path)
        if lease is not None and lease.get("owner") != owner:
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _read_lease(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lease = json.load(handle)
        except (OSError, ValueError):
            return None
        return lease if isinstance(lease, dict) else None

    def shard_states(
        self,
        base_key: str,
        shards: int,
        total_of: Any = None,
        fingerprint: Optional[str] = None,
    ) -> List[str]:
        """Per-shard status: ``"complete"`` | ``"leased"`` | ``"open"``."""
        states = []
        for shard_id in range(shards):
            key = shard_entry_key(base_key, shard_id, shards)
            entry = self._state.get(key)
            if entry is not None and entry.get("complete") and (
                fingerprint is None or entry.get("fingerprint") == fingerprint
            ):
                states.append("complete")
                continue
            lease = self._read_lease(
                self._lease_path(base_key, shard_id, shards)
            )
            if lease is not None and lease.get("expires", 0) > time.time():
                states.append("leased")
            else:
                states.append("open")
        return states


def claim_shards(
    journal: Optional[CheckpointJournal],
    base_key: str,
    shards: int,
    *,
    owner: str,
    fingerprint: Optional[str] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.05,
) -> Iterator[int]:
    """Yield the shard ids this worker should run, with work-stealing.

    Without a journal every shard is ours.  With one, the claim loop
    keeps going until every shard is *complete* in the journal:
    unclaimed shards are claimed and yielded; shards leased by live
    peers are left alone (their owners' journal entries count them);
    a lease that expires before its shard completes — a straggler or
    a dead worker — is stolen and the shard re-run here.  The caller
    must mark each yielded shard complete in the journal (the sharded
    checkers do, via their per-shard entries) before the loop can
    terminate.

    A shard is yielded to this worker **at most once**.  A shard sweep
    that trips a budget/deadline or loses a worker records an
    *incomplete* journal entry and returns a partial report; since the
    exhausted budget is shared across this worker's shard runs,
    re-claiming such a shard could never advance it.  Once every
    outstanding shard has already been tried here, the loop returns
    instead of spinning, and the caller's merge reports partial
    coverage for the unfinished shards — exactly like the serial path.
    """
    if journal is None:
        yield from range(shards)
        return
    yielded: set = set()
    while True:
        journal.reload()
        states = journal.shard_states(base_key, shards, fingerprint=fingerprint)
        if all(state == "complete" for state in states):
            return
        progressed = False
        stalled = False
        for shard_id, state in enumerate(states):
            if state == "complete":
                continue
            if shard_id in yielded:
                # We already ran this shard and its entry never reached
                # complete (partial coverage); re-running makes no
                # progress against the same exhausted budget.
                stalled = True
                continue
            if journal.claim_shard(
                base_key, shard_id, shards, owner=owner, ttl=ttl
            ):
                progressed = True
                yielded.add(shard_id)
                try:
                    yield shard_id
                finally:
                    journal.release_shard(
                        base_key, shard_id, shards, owner=owner
                    )
        if progressed:
            continue
        if stalled:
            # Every shard still open is one this worker already tried
            # and could not finish: return what completed.
            return
        # Everything unfinished is leased to live peers; wait for
        # them to finish (their entries complete) or for their
        # leases to expire (we steal).
        time.sleep(poll_interval)


# -- the ambient journal --------------------------------------------------


def default_journal() -> Optional[CheckpointJournal]:
    """The process default journal: the one ``REPRO_CHECKPOINT`` (or
    the CLI's ``--checkpoint``) names, honouring earlier entries only
    under ``REPRO_RESUME`` (``--resume``); None when unset.  Opened
    once, by :func:`~repro.engine.context.set_defaults`, so every
    checker of a run records into the same object."""
    return CONTEXT.journal


__all__ = [
    "CheckpointJournal",
    "DEFAULT_LEASE_TTL",
    "JOURNAL_META_KEY",
    "claim_shards",
    "default_journal",
    "entry_signature",
    "journal_progress",
    "shard_entry_key",
    "state_checksum",
    "sweep_key",
]

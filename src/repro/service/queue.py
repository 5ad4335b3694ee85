"""The daemon's batching job queue.

One :class:`JobQueue` owns every job the daemon has seen.  Jobs are
keyed two ways: by *id* (what clients poll) and by *content key*
(:func:`~repro.service.protocol.job_key` over the canonical spec) —
the second index is what deduplicates identical requests: while a job
for key K is queued or running, submitting K again returns the same
record and bumps the engine's ``service_dedup_hits`` counter instead
of queueing a second chase.

Execution: ``max_jobs`` asyncio worker loops each pull one job at a
time and run it with :func:`asyncio.to_thread`, so sweeps (which fan
out through the supervised fork pool themselves) never block the
event loop.  Every job runs under its own :class:`Budget` — the
spec's limits plus the daemon-wide ``--job-deadline`` — and its own
per-key checkpoint journal in the state directory.

Lifecycle around restarts:

* the queue journal (``jobs.json``) persists every record — terminal
  jobs with their full outcome, non-terminal jobs as ``queued``.  A
  record turns terminal once (in :meth:`JobQueue._finalize`, or when
  :meth:`JobQueue.load` restores it) and never changes after, so its
  journal entry is JSON-encoded once and kept; each write encodes only
  the queued and running records afresh, streams every entry into a
  temp file and still lands as one whole-file atomic ``os.replace``;
* SIGTERM drains by calling :meth:`Budget.expire_now` on every
  running job: the sweep trips its deadline at the next probe,
  flushes its checkpoint journal, and the partial result is *not*
  finalized — the record goes back to ``queued``;
* a restarted daemon re-enqueues those records; their sweeps resume
  from the journal's verified prefix (reported as ``resumed_prefix``
  on the job).

Crash hardening (the self-healing loop):

* ``jobs.json`` carries a ``clean`` marker written only by a graceful
  drain; a daemon that loads an *unclean* journal knows its requeued
  jobs already crashed mid-run and charges each one an attempt;
* a job whose execution raises (or that keeps crashing the daemon)
  is retried up to ``max_retries`` times (``REPRO_SERVICE_JOB_RETRIES``,
  default 2); past that it is a *poison job* — finalized ``faulted``
  with ``quarantined: true`` so it can never crash-loop the daemon;
* the ``daemon.kill`` fault point (see :mod:`repro.engine.faults`)
  SIGKILLs the daemon at the two nastiest moments — just before a job
  executes and just before its outcome is finalized — which is what
  the chaos tests use to prove the above actually converges.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import faults
from repro.engine.budget import Budget
from repro.engine.cache import flush_active_store
from repro.engine.checkpoint import CheckpointJournal, journal_progress
from repro.engine.instrumentation import engine_stats
from repro.errors import JobNotFound
from repro.service.jobs import JobOutcome, budget_for, execute_job
from repro.service.knobs import knob
from repro.service.protocol import (
    STATE_CANCELLED,
    STATE_FAULTED,
    STATE_PARTIAL,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
    exit_code_for,
    job_key,
    normalize_job,
)


def _now() -> float:
    return time.time()


@dataclass
class JobRecord:
    """One submitted job, from queue to terminal state."""

    job_id: str
    key: str
    spec: Dict[str, Any]
    state: str = STATE_QUEUED
    submitted_at: float = field(default_factory=_now)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: Optional[JobOutcome] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    dedup_count: int = 0
    resumed_prefix: int = 0
    attempts: int = 0
    quarantined: bool = False
    cancel_requested: bool = False
    interrupted: bool = False
    budget: Optional[Budget] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def add_event(self, name: str, **detail: Any) -> None:
        event = {"event": name, "ts": round(_now(), 3)}
        event.update(detail)
        self.events.append(event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def exit_code(self) -> Optional[int]:
        return exit_code_for(self.state) if self.terminal else None

    def to_json(self, *, include_rendering: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.job_id,
            "key": self.key,
            "kind": self.spec.get("kind"),
            "spec": self.spec,
            "state": self.state,
            "exit_code": self.exit_code(),
            "deduplicated": self.dedup_count,
            "resumed_prefix": self.resumed_prefix,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": list(self.events),
        }
        if self.outcome is not None and self.terminal:
            outcome = self.outcome.to_json()
            if not include_rendering:
                outcome.pop("rendering", None)
            payload["outcome"] = outcome
        return payload


class JobQueue:
    """Bounded-concurrency job execution with dedup and drain/resume
    (see module docstring).  All public methods must be called from
    the owning event loop; the heavy lifting happens in threads."""

    def __init__(
        self,
        state_dir: str,
        *,
        max_jobs: int = 2,
        job_deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> None:
        self.state_dir = state_dir
        self.max_jobs = max(1, int(max_jobs))
        self.job_deadline = job_deadline
        self.max_retries = max(0, int(knob("REPRO_SERVICE_JOB_RETRIES", max_retries)))
        self.started_at = _now()
        self._jobs: Dict[str, JobRecord] = {}
        self._terminal_entries: Dict[str, str] = {}
        self._active_by_key: Dict[str, JobRecord] = {}
        self._pending: asyncio.Queue = asyncio.Queue()
        self._workers: List[asyncio.Task] = []
        self._counter = 0
        self._draining = False
        os.makedirs(state_dir, exist_ok=True)

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun (``/healthz`` readiness)."""
        return self._draining

    # -- persistence -------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.state_dir, "jobs.json")

    def checkpoint_path(self, key: str) -> str:
        return os.path.join(self.state_dir, f"job-{key[:32]}.ckpt.json")

    def _persist(self, *, clean: bool = False) -> None:
        # The bytes are exactly json.dump({"jobs": [...], "clean": clean}),
        # written entry by entry: terminal entries come pre-encoded by
        # ``_seal``, only queued and running ones are encoded here.
        temp = self.journal_path + ".tmp"
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write('{"jobs": [')
                for index, record in enumerate(self._jobs.values()):
                    if index:
                        handle.write(", ")
                    if record.terminal:
                        handle.write(self._terminal_entries[record.job_id])
                    else:
                        handle.write(json.dumps(_journal_entry(record)))
                # ``clean`` is True only for the drain-path write; a
                # journal found without it was left by a crash, and
                # every requeued job is charged an attempt on load.
                handle.write(f'], "clean": {json.dumps(clean)}}}')
            os.replace(temp, self.journal_path)
        except OSError:
            # The daemon keeps serving, but nothing since the last good
            # write would survive a crash: count it where stats() shows.
            engine_stats().bump("service_journal_write_errors")
            try:
                os.unlink(temp)
            except OSError:
                pass

    def _seal(self, record: JobRecord) -> None:
        """Encode a record that just became terminal, once: it never
        changes again, so every later write reuses these bytes."""
        self._terminal_entries[record.job_id] = json.dumps(_journal_entry(record))

    def load(self) -> int:
        """Restore records from a previous daemon's queue journal.
        Non-terminal jobs come back as ``queued`` (their checkpoint
        journals make the re-run a resume).  After an *unclean*
        shutdown each requeued job is charged an attempt; one over its
        retry budget is quarantined as ``faulted`` instead of being
        allowed to crash-loop the daemon.  Returns how many were
        re-queued."""
        try:
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return 0
        was_clean = bool(data.get("clean", True))
        requeued = 0
        for entry in data.get("jobs", []):
            try:
                record = JobRecord(
                    job_id=str(entry["id"]),
                    key=str(entry["key"]),
                    spec=dict(entry["spec"]),
                    state=str(entry["state"]),
                    submitted_at=float(entry.get("submitted_at", _now())),
                    dedup_count=int(entry.get("dedup_count", 0)),
                    attempts=int(entry.get("attempts", 0)),
                    quarantined=bool(entry.get("quarantined", False)),
                )
            except (KeyError, TypeError, ValueError):
                continue
            if record.terminal:
                outcome = entry.get("outcome")
                if isinstance(outcome, dict):
                    record.outcome = JobOutcome(
                        state=outcome.get("state", record.state),
                        exit_code=outcome.get(
                            "exit_code", exit_code_for(record.state)
                        ),
                        rendering=outcome.get("rendering", ""),
                        coverage=outcome.get("coverage", "exhaustive"),
                        coverage_events=list(outcome.get("coverage_events", [])),
                        seconds=float(outcome.get("seconds", 0.0)),
                    )
                record.done.set()
                record.add_event("restored", state=record.state)
                self._seal(record)
            else:
                if not was_clean:
                    record.attempts += 1
                if record.attempts > self.max_retries:
                    self._quarantine(
                        record, f"crashed the daemon {record.attempts} time(s)", persist=False
                    )
                else:
                    record.state = STATE_QUEUED
                    record.add_event("requeued", attempts=record.attempts)
                    self._active_by_key[record.key] = record
                    requeued += 1
            self._jobs[record.job_id] = record
            self._counter = max(self._counter, _id_counter(record.job_id))
        if self._jobs:
            # Land the charged attempts (and any load-time quarantines)
            # back on disk *now*, in one write of every record: if the
            # requeued job kills the daemon again before anything else
            # persists, the next restart must see the higher count or
            # the crash loop never ends.
            self._persist()
        return requeued

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        for record in self._jobs.values():
            if record.state == STATE_QUEUED:
                self._pending.put_nowait(record.job_id)
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"job-worker-{i}")
            for i in range(self.max_jobs)
        ]

    async def drain(self, timeout: float = 60.0) -> None:
        """Graceful shutdown: interrupt running sweeps through their
        budgets, let them checkpoint, persist the queue journal."""
        self._draining = True
        for record in self._jobs.values():
            if record.state == STATE_RUNNING:
                record.interrupted = True
                if record.budget is not None:
                    record.budget.expire_now()
        deadline = time.monotonic() + timeout
        while any(r.state == STATE_RUNNING for r in self._jobs.values()):
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.05)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._persist(clean=True)
        flush_active_store()

    # -- submission and queries --------------------------------------

    def submit(self, payload: Any) -> Tuple[JobRecord, bool]:
        """Normalize, dedup, and enqueue.  Returns ``(record, was_dedup)``;
        raises :class:`ServiceProtocolError` for malformed payloads."""
        spec = normalize_job(payload)
        key = job_key(spec)
        existing = self._active_by_key.get(key)
        if existing is not None and not existing.terminal:
            existing.dedup_count += 1
            existing.add_event("deduplicated")
            engine_stats().bump("service_dedup_hits")
            return existing, True
        self._counter += 1
        record = JobRecord(
            job_id=f"j{self._counter:06d}-{key[:8]}", key=key, spec=spec
        )
        record.add_event("submitted")
        self._jobs[record.job_id] = record
        self._active_by_key[key] = record
        self._pending.put_nowait(record.job_id)
        engine_stats().bump("service_jobs_submitted")
        self._persist()
        return record, False

    def get(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFound(f"no job {job_id!r}")
        return record

    def records(self) -> List[JobRecord]:
        return list(self._jobs.values())

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state (or timeout)."""
        record = self.get(job_id)
        if not record.terminal:
            try:
                await asyncio.wait_for(record.done.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        return record

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs cancel immediately; running jobs
        have their budget force-expired and finalize as ``cancelled``
        once the sweep unwinds.  Returns False when already terminal."""
        record = self.get(job_id)
        if record.terminal:
            return False
        if record.state == STATE_QUEUED:
            record.add_event("cancelled")
            self._finalize(record, STATE_CANCELLED)
            return True
        record.cancel_requested = True
        record.add_event("cancel_requested")
        if record.budget is not None:
            record.budget.expire_now()
        return True

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for record in self._jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        stats = engine_stats()
        return {
            "uptime_seconds": round(_now() - self.started_at, 3),
            "max_jobs": self.max_jobs,
            "job_deadline": self.job_deadline,
            "jobs": states,
            "pending": self._pending.qsize(),
            "dedup_hits": stats.counter("service_dedup_hits"),
            "jobs_submitted": stats.counter("service_jobs_submitted"),
            "jobs_executed": stats.counter("service_jobs_executed"),
            "job_retries": stats.counter("service_job_retries"),
            "jobs_quarantined": stats.counter("service_jobs_quarantined"),
            "journal_write_errors": stats.counter("service_journal_write_errors"),
            "max_retries": self.max_retries,
            "engine": stats.counters(),
        }

    # -- execution ---------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job_id = await self._pending.get()
            record = self._jobs.get(job_id)
            if record is None or record.state != STATE_QUEUED:
                continue
            if self._draining:
                continue
            try:
                await self._run_job(record)
            except asyncio.CancelledError:
                raise
            except BaseException as error:
                # Belt and braces: a job must never wedge its worker.
                # Transient wreckage gets retried on its per-job budget;
                # a job still failing past that is poison — quarantine
                # it so it cannot crash-loop the daemon.
                record.attempts += 1
                record.budget = None
                if record.attempts <= self.max_retries:
                    record.state = STATE_QUEUED
                    record.add_event(
                        "retried",
                        attempts=record.attempts,
                        error=f"{type(error).__name__}: {error}",
                    )
                    engine_stats().bump("service_job_retries")
                    self._pending.put_nowait(record.job_id)
                    self._persist()
                else:
                    record.outcome = JobOutcome(
                        state=STATE_FAULTED,
                        exit_code=exit_code_for(STATE_FAULTED),
                        rendering=f"error: {type(error).__name__}: {error}",
                        coverage="faulted",
                    )
                    self._quarantine(
                        record, f"failed {record.attempts} time(s): {error}"
                    )

    async def _run_job(self, record: JobRecord) -> None:
        record.state = STATE_RUNNING
        record.started_at = _now()
        record.add_event("started")
        budget = budget_for(record.spec, self.job_deadline) or Budget()
        record.budget = budget
        ckpt_path = self.checkpoint_path(record.key)
        resumed = journal_progress(ckpt_path)
        if resumed:
            record.resumed_prefix = resumed
            record.add_event("resumed", prefix=resumed)
        journal = CheckpointJournal(ckpt_path, resume=True)
        engine_stats().bump("service_jobs_executed")
        if faults.fire("daemon.kill") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        outcome = await asyncio.to_thread(
            execute_job, record.spec, budget=budget, checkpoint=journal
        )
        if faults.fire("daemon.kill") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        record.budget = None
        if record.cancel_requested:
            record.outcome = outcome
            record.add_event("cancelled")
            self._finalize(record, STATE_CANCELLED)
        elif record.interrupted and outcome.state == STATE_PARTIAL:
            # Drained mid-flight: the checkpoint journal holds the
            # verified prefix; hand the record back to the queue so a
            # restarted daemon resumes instead of reporting partial.
            record.interrupted = False
            record.state = STATE_QUEUED
            record.add_event("drained")
        else:
            record.outcome = outcome
            self._finalize(record, outcome.state)

    def _quarantine(self, record: JobRecord, reason: str, *, persist: bool = True) -> None:
        """Poison-job exit: finalize ``faulted`` with the quarantine
        flag set so restarts and operators can tell it apart from an
        ordinary fault."""
        record.quarantined = True
        record.add_event("quarantined", reason=reason)
        if record.outcome is None:
            record.outcome = JobOutcome(
                state=STATE_FAULTED,
                exit_code=exit_code_for(STATE_FAULTED),
                rendering=f"quarantined: {reason}",
                coverage="faulted",
            )
        engine_stats().bump("service_jobs_quarantined")
        self._finalize(record, STATE_FAULTED, persist=persist)

    def _finalize(self, record: JobRecord, state: str, *, persist: bool = True) -> None:
        """Make *record* terminal; ``load`` passes *persist* False and
        writes the journal once, with every record."""
        record.state = state
        record.finished_at = _now()
        record.add_event("finished", state=state)
        self._seal(record)
        if self._active_by_key.get(record.key) is record:
            del self._active_by_key[record.key]
        record.done.set()
        # The checkpoint journal exists to resume *interrupted* jobs;
        # once the outcome is terminal it must go, or a later
        # resubmission of the same question would replay the stored
        # verdict ("pairs checked: 0") instead of re-executing.
        try:
            os.unlink(self.checkpoint_path(record.key))
        except OSError:
            pass
        flush_active_store()
        if persist:
            self._persist()


def _journal_entry(record: JobRecord) -> Dict[str, Any]:
    """A record as ``jobs.json`` stores it: non-terminal records as
    ``queued`` (a restart re-runs them), terminal ones with their
    outcome."""
    entry: Dict[str, Any] = {
        "id": record.job_id,
        "key": record.key,
        "spec": record.spec,
        "state": record.state if record.terminal else STATE_QUEUED,
        "submitted_at": record.submitted_at,
        "dedup_count": record.dedup_count,
        "attempts": record.attempts,
        "quarantined": record.quarantined,
    }
    if record.outcome is not None and record.terminal:
        entry["outcome"] = record.outcome.to_json()
    return entry


def _id_counter(job_id: str) -> int:
    try:
        return int(job_id.split("-", 1)[0].lstrip("j"))
    except ValueError:
        return 0


__all__ = ["JobQueue", "JobRecord"]

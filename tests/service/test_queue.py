"""The job state machine, transition by transition.

Heavy sweeps are faked here — a controllable ``execute_job`` stand-in
lets each test drive exactly one transition (budget trips, worker
deaths, drains) without fork pools; the subprocess smoke tests exercise
the real engine end to end.
"""

import asyncio
import io
import json
import os
import threading
import time

import pytest

from repro.engine.checkpoint import journal_progress
from repro.engine.instrumentation import engine_stats
from repro.errors import DeadlineExceeded, JobNotFound, ServiceProtocolError
from repro.service.jobs import JobOutcome
from repro.service.queue import JobQueue


@pytest.fixture(autouse=True)
def _clean_stats():
    engine_stats().reset()
    yield
    engine_stats().reset()


def _outcome(state, rendering="fake report"):
    from repro.service.protocol import exit_code_for

    return JobOutcome(
        state=state, exit_code=exit_code_for(state), rendering=rendering
    )


def _fake_executor(monkeypatch, outcome=None, *, started=None, hold=None):
    """Replace the queue's ``execute_job`` with a fake that optionally
    signals `started`, then blocks on the budget until `hold` is set or
    the budget expires (returning ``partial``, like a real sweep)."""

    def fake(spec, *, budget=None, checkpoint=None):
        if started is not None:
            started.set()
        if hold is not None:
            while not hold.is_set():
                if budget is not None:
                    try:
                        budget.check()
                    except DeadlineExceeded:
                        if checkpoint is not None:
                            checkpoint.record(
                                "fake-sweep",
                                verified_upto=8,
                                total=37,
                                ok=True,
                                violations=0,
                                fingerprint="cafe",
                                flush=True,
                            )
                        return _outcome("partial")
                time.sleep(0.005)
        return outcome or _outcome("done")

    import repro.service.queue as queue_module

    monkeypatch.setattr(queue_module, "execute_job", fake)
    return fake


async def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


SPEC = {"kind": "unique", "mapping": "Projection"}


class TestTransitions:
    @pytest.mark.parametrize("state", ["done", "violated", "partial", "faulted"])
    def test_queued_running_terminal(self, tmp_path, monkeypatch, state):
        async def scenario():
            _fake_executor(monkeypatch, _outcome(state))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            record, deduped = queue.submit(dict(SPEC))
            assert not deduped
            await queue.wait(record.job_id, timeout=5)
            assert record.state == state
            assert record.exit_code() == record.outcome.exit_code
            names = [event["event"] for event in record.events]
            assert names[:2] == ["submitted", "started"]
            assert names[-1] == "finished"
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        async def scenario():
            started = threading.Event()
            hold = threading.Event()
            _fake_executor(monkeypatch, started=started, hold=hold)
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            blocker, _ = queue.submit(dict(SPEC))
            victim, _ = queue.submit({**SPEC, "max_facts": 2})
            await _until(lambda: blocker.state == "running")
            assert victim.state == "queued"
            assert queue.cancel(victim.job_id)
            assert victim.state == "cancelled"
            assert victim.exit_code() == 5
            hold.set()
            await queue.wait(blocker.job_id, timeout=5)
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_cancel_running_job(self, tmp_path, monkeypatch):
        async def scenario():
            started = threading.Event()
            hold = threading.Event()
            _fake_executor(monkeypatch, started=started, hold=hold)
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await _until(started.is_set)
            assert record.state == "running"
            assert queue.cancel(record.job_id)  # expires the budget
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "cancelled"
            assert not queue.cancel(record.job_id)  # already terminal
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_budget_trip_mid_job_is_partial(self, tmp_path, monkeypatch):
        async def scenario():
            started = threading.Event()
            hold = threading.Event()  # never set: only the budget stops it
            _fake_executor(monkeypatch, started=started, hold=hold)
            queue = JobQueue(str(tmp_path), max_jobs=1, job_deadline=0.2)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "partial"
            assert record.exit_code() == 3
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_transient_crash_is_retried_to_success(self, tmp_path, monkeypatch):
        async def scenario():
            import repro.service.queue as queue_module

            calls = []

            def flaky(spec, *, budget=None, checkpoint=None):
                calls.append(spec)
                if len(calls) == 1:
                    raise RuntimeError("synthetic executor crash")
                return _outcome("done")

            monkeypatch.setattr(queue_module, "execute_job", flaky)
            queue = JobQueue(str(tmp_path), max_jobs=1, max_retries=2)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "done"  # healed on the retry
            assert record.attempts == 1
            assert not record.quarantined
            assert "retried" in [e["event"] for e in record.events]
            assert queue.stats()["job_retries"] == 1
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_poison_job_is_quarantined_not_wedged(self, tmp_path, monkeypatch):
        async def scenario():
            import repro.service.queue as queue_module

            calls = []

            def poison(spec, *, budget=None, checkpoint=None):
                calls.append(spec)
                if spec.get("max_facts") != 2:
                    raise RuntimeError("synthetic executor crash")
                return _outcome("done")

            monkeypatch.setattr(queue_module, "execute_job", poison)
            queue = JobQueue(str(tmp_path), max_jobs=1, max_retries=1)
            await queue.start()
            first, _ = queue.submit(dict(SPEC))
            await queue.wait(first.job_id, timeout=5)
            assert first.state == "faulted"
            assert first.quarantined
            assert first.attempts == 2  # initial run + 1 retry
            assert "synthetic executor crash" in first.outcome.rendering
            assert "quarantined" in [e["event"] for e in first.events]
            assert queue.stats()["jobs_quarantined"] == 1
            second, _ = queue.submit({**SPEC, "max_facts": 2})
            await queue.wait(second.job_id, timeout=5)
            assert second.state == "done"  # the worker survived
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_unclean_restart_charges_an_attempt(self, tmp_path, monkeypatch):
        """A jobs.json without the ``clean`` marker means the daemon
        crashed; requeued jobs over their retry budget quarantine on
        load instead of crash-looping."""

        async def scenario():
            _fake_executor(monkeypatch, _outcome("done"))
            journal = tmp_path / "jobs.json"
            journal.write_text(
                json.dumps(
                    {
                        "jobs": [
                            {
                                "id": "j000001-deadbeef",
                                "key": "deadbeef",
                                "spec": dict(SPEC),
                                "state": "queued",
                                "attempts": 2,
                            }
                        ],
                        "clean": False,
                    }
                ),
                encoding="utf-8",
            )
            queue = JobQueue(str(tmp_path), max_jobs=1, max_retries=2)
            assert queue.load() == 0  # 2 prior attempts + this crash > budget
            [record] = queue.records()
            assert record.state == "faulted"
            assert record.quarantined
            assert record.attempts == 3

        asyncio.run(scenario())

    def test_load_writes_the_journal_once_with_every_record(
        self, tmp_path, monkeypatch
    ):
        """Quarantining a record on load must not write a journal that
        lacks the records not yet loaded: a SIGKILL right after such a
        write would lose them."""
        journal = tmp_path / "jobs.json"
        entries = [
            {
                "id": f"j00000{n}-{key}",
                "key": key,
                "spec": dict(SPEC, max_facts=n),
                "state": "queued",
                "attempts": attempts,
            }
            for n, key, attempts in ((1, "deadbeef", 2), (2, "cafef00d", 0))
        ]
        journal.write_text(
            json.dumps({"jobs": entries, "clean": False}), encoding="utf-8"
        )
        real_replace = os.replace
        written = []

        def spy(src, dst, *args, **kwargs):
            if str(dst).endswith("jobs.json"):
                with open(src, encoding="utf-8") as handle:
                    written.append(json.load(handle))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", spy)
        queue = JobQueue(str(tmp_path), max_jobs=1, max_retries=2)
        assert queue.load() == 1  # the first is over budget, the second requeued
        assert len(written) == 1
        [(first, second)] = [data["jobs"] for data in written]
        assert (first["id"], first["state"], first["quarantined"]) == (
            "j000001-deadbeef", "faulted", True
        )
        assert (second["id"], second["state"], second["attempts"]) == (
            "j000002-cafef00d", "queued", 1
        )


class TestDeduplication:
    def test_in_flight_duplicates_join_the_same_record(self, tmp_path, monkeypatch):
        async def scenario():
            started = threading.Event()
            hold = threading.Event()
            _fake_executor(monkeypatch, started=started, hold=hold)
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            first, deduped_first = queue.submit(dict(SPEC))
            second, deduped_second = queue.submit(
                {**SPEC, "domain": ["b", "a"]}  # same canonical question
            )
            assert not deduped_first and deduped_second
            assert first is second
            assert first.dedup_count == 1
            assert queue.stats()["dedup_hits"] == 1
            assert queue.stats()["jobs_submitted"] == 1
            hold.set()
            await queue.wait(first.job_id, timeout=5)
            # Terminal records are no longer dedup targets.
            third, deduped_third = queue.submit(dict(SPEC))
            assert not deduped_third and third is not first
            hold.set()
            await queue.wait(third.job_id, timeout=5)
            await queue.drain(timeout=1)

        asyncio.run(scenario())


class TestDrainAndResume:
    def test_drain_requeues_running_jobs_with_checkpoint(self, tmp_path, monkeypatch):
        async def scenario():
            started = threading.Event()
            hold = threading.Event()  # never set: drain must interrupt
            _fake_executor(monkeypatch, started=started, hold=hold)
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await _until(started.is_set)
            await queue.drain(timeout=5)
            assert record.state == "queued"  # running -> queued, not partial
            assert [e["event"] for e in record.events][-1] == "drained"
            assert journal_progress(queue.checkpoint_path(record.key)) == 8
            persisted = json.loads(
                (tmp_path / "jobs.json").read_text(encoding="utf-8")
            )
            assert persisted["jobs"][0]["state"] == "queued"
            return record.key

        key = asyncio.run(scenario())

        async def restart():
            _fake_executor(monkeypatch, _outcome("done"))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            assert queue.load() == 1
            await queue.start()
            [record] = queue.records()
            assert record.key == key
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "done"
            assert record.resumed_prefix == 8  # picked up the journal
            events = [e["event"] for e in record.events]
            assert "requeued" in events and "resumed" in events
            await queue.drain(timeout=1)

        asyncio.run(restart())

    @staticmethod
    def _tampered_checkpoint(path):
        """A journal whose one incomplete entry claims 9 verified items
        after it was signed for 5."""
        from repro.engine.checkpoint import CheckpointJournal

        CheckpointJournal(path).record(
            "sweep", verified_upto=5, total=37, ok=True, violations=0,
            fingerprint="cafe", flush=True,
        )
        assert journal_progress(path) == 5
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["sweep"]["verified_upto"] = 9
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def test_progress_counts_only_what_a_resume_honours(self, tmp_path):
        from repro.engine import reset_engine_stats
        from repro.engine.checkpoint import CheckpointJournal

        path = str(tmp_path / "job.ckpt.json")
        self._tampered_checkpoint(path)
        reset_engine_stats()
        # The /events poller reads progress every 0.1 s: it must not
        # count the same corruption on every poll.
        assert journal_progress(path) == 0
        assert journal_progress(path) == 0
        assert engine_stats().counter("checkpoint_corrupt_entries") == 0
        assert CheckpointJournal(path).resume_index("sweep", 37, "cafe") == 0
        assert engine_stats().counter("checkpoint_corrupt_entries") == 1

    def test_a_tampered_checkpoint_is_not_reported_as_resumed(
        self, tmp_path, monkeypatch
    ):
        from repro.service.protocol import job_key, normalize_job

        async def scenario():
            _fake_executor(monkeypatch, _outcome("done"))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            self._tampered_checkpoint(
                queue.checkpoint_path(job_key(normalize_job(dict(SPEC))))
            )
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "done"
            assert record.resumed_prefix == 0
            assert "resumed" not in [e["event"] for e in record.events]
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_terminal_jobs_survive_restart_with_outcome(self, tmp_path, monkeypatch):
        async def scenario():
            _fake_executor(monkeypatch, _outcome("violated", "bad mapping"))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await queue.wait(record.job_id, timeout=5)
            await queue.drain(timeout=1)

        asyncio.run(scenario())

        async def restart():
            queue = JobQueue(str(tmp_path), max_jobs=1)
            assert queue.load() == 0  # terminal: nothing to re-queue
            [record] = queue.records()
            assert record.state == "violated"
            assert record.outcome.rendering == "bad mapping"
            assert record.exit_code() == 1

        asyncio.run(restart())


class TestQueries:
    def test_unknown_job_raises(self, tmp_path):
        async def scenario():
            queue = JobQueue(str(tmp_path))
            with pytest.raises(JobNotFound):
                queue.get("j999999-deadbeef")

        asyncio.run(scenario())

    def test_malformed_submit_raises_without_a_record(self, tmp_path):
        async def scenario():
            queue = JobQueue(str(tmp_path))
            with pytest.raises(ServiceProtocolError):
                queue.submit({"kind": "subset", "mapping": "NoSuchMapping"})
            assert queue.records() == []

        asyncio.run(scenario())

    def test_stats_shape(self, tmp_path, monkeypatch):
        async def scenario():
            _fake_executor(monkeypatch, _outcome("done"))
            queue = JobQueue(str(tmp_path), max_jobs=3, job_deadline=9.0)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))
            await queue.wait(record.job_id, timeout=5)
            stats = queue.stats()
            assert stats["max_jobs"] == 3
            assert stats["job_deadline"] == 9.0
            assert stats["jobs"] == {"done": 1}
            assert stats["jobs_executed"] == 1
            assert "engine" in stats
            await queue.drain(timeout=1)

        asyncio.run(scenario())


def _reference_journal(records, clean):
    """The journal bytes of the writer that re-encoded every record on
    each write through ``json.dump`` (its body, kept as the oracle)."""
    from repro.service.protocol import STATE_QUEUED

    entries = []
    for record in records:
        entry = {
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
        entries.append(entry)
    buffer = io.StringIO()
    json.dump({"jobs": entries, "clean": clean}, buffer)
    return buffer.getvalue().encode("utf-8")


class TestJournal:
    def test_bytes_match_the_reference_writer(self, tmp_path, monkeypatch):
        """Queued, running, done, violated, cancelled and quarantined
        records, with ``clean`` False and True, and again after load."""
        import repro.service.queue as queue_module

        hold = threading.Event()
        started = threading.Event()

        def fake(spec, *, budget=None, checkpoint=None):
            mapping = spec["mapping"]
            if mapping == "Decomposition":
                raise RuntimeError("synthetic executor crash")
            if mapping == "Thm4.9":
                started.set()
                hold.wait(10)
            if mapping == "Union":
                # Non-ASCII, quotes and newlines exercise the escaping.
                return _outcome("violated", 'violated: "Σ ⊆ Σ\'"\n  P(a, b) ✗')
            return _outcome("done")

        monkeypatch.setattr(queue_module, "execute_job", fake)
        path = tmp_path / "jobs.json"

        async def scenario():
            queue = JobQueue(str(tmp_path), max_jobs=1, max_retries=0)
            await queue.start()
            for mapping in ("Projection", "Union", "Decomposition"):
                record, _ = queue.submit({**SPEC, "mapping": mapping})
                await queue.wait(record.job_id, timeout=5)
            running, _ = queue.submit({**SPEC, "mapping": "Thm4.9"})
            await _until(started.is_set)
            queued, _ = queue.submit({**SPEC, "mapping": "Thm4.10"})
            victim, _ = queue.submit({**SPEC, "mapping": "Thm4.11"})
            assert queue.cancel(victim.job_id)
            states = [(r.state, r.quarantined) for r in queue.records()]
            assert states == [
                ("done", False),
                ("violated", False),
                ("faulted", True),
                ("running", False),
                ("queued", False),
                ("cancelled", False),
            ]
            written = {}
            for clean in (False, True):
                queue._persist(clean=clean)
                written[clean] = path.read_bytes()
                assert written[clean] == _reference_journal(queue.records(), clean)

            # A restarted queue writes the same bytes for what it loaded.
            restarted = JobQueue(str(tmp_path), max_jobs=1)
            assert restarted.load() == 2  # the running and queued jobs
            assert path.read_bytes() == _reference_journal(restarted.records(), False)
            restarted._persist(clean=True)
            assert path.read_bytes() == written[True]

            hold.set()
            await queue.wait(running.job_id, timeout=5)
            await queue.drain(timeout=1)

        asyncio.run(scenario())

    def test_terminal_entries_are_encoded_once(self, tmp_path, monkeypatch):
        """N terminal records and M further writes cost N outcome
        encodings, not N x M."""
        calls = []
        original = JobOutcome.to_json

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(JobOutcome, "to_json", counting)
        terminal, writes = 4, 6
        path = tmp_path / "jobs.json"

        async def scenario():
            _fake_executor(monkeypatch, _outcome("done"))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            for facts in range(1, terminal + 1):
                record, _ = queue.submit({**SPEC, "max_facts": facts})
                await queue.wait(record.job_id, timeout=5)
            for _ in range(writes):
                queue._persist()
            await queue.drain(timeout=1)
            persisted = json.loads(path.read_text(encoding="utf-8"))
            assert [job["state"] for job in persisted["jobs"]] == ["done"] * terminal

        asyncio.run(scenario())
        assert len(calls) == terminal

    def test_write_failure_is_counted_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        """A journal write that fails (full or read-only state dir) must
        not pass silently: it is counted, and the job still finishes."""
        real_replace = os.replace
        failed = []

        def replace_failing_once(src, dst, *args, **kwargs):
            if str(dst).endswith("jobs.json") and not failed:
                failed.append(dst)
                raise OSError(28, "No space left on device")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace_failing_once)

        async def scenario():
            _fake_executor(monkeypatch, _outcome("done"))
            queue = JobQueue(str(tmp_path), max_jobs=1)
            await queue.start()
            record, _ = queue.submit(dict(SPEC))  # this write fails
            assert queue.stats()["journal_write_errors"] == 1
            assert engine_stats().counter("service_journal_write_errors") == 1
            assert not (tmp_path / "jobs.json.tmp").exists()
            assert not (tmp_path / "jobs.json").exists()
            await queue.wait(record.job_id, timeout=5)
            assert record.state == "done"
            # The finalize write landed; nothing else failed.
            assert queue.stats()["journal_write_errors"] == 1
            persisted = json.loads((tmp_path / "jobs.json").read_text(encoding="utf-8"))
            assert [job["state"] for job in persisted["jobs"]] == ["done"]
            await queue.drain(timeout=1)

        asyncio.run(scenario())

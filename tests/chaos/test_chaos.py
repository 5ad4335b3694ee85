"""Chaos harness: seeded fault schedules against the whole stack.

The contract under test is the PR's headline guarantee: **every run
under an injected fault schedule terminates in either a correct
verdict or a clean partial verdict — byte-identical to the fault-free
run once retries settle.**  Each scenario drives a real check (the
same :func:`repro.service.jobs.execute_job` the daemon and the CLI
share) under a deterministic :func:`~repro.engine.faults.fault_scope`
and compares the rendering byte for byte, then the subprocess tests
SIGKILL a live daemon at its nastiest moments and assert the restart
converges.

CI runs this as the ``chaos-smoke`` job.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys

import pytest

from repro.engine import (
    engine_stats,
    fault_scope,
    fork_available,
    fsck_checkpoint,
    fsck_store,
    reset_all_caches,
    reset_engine_stats,
    use_store,
)
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.store import entry_checksum
from repro.service.jobs import budget_for, execute_job
from repro.service.protocol import normalize_job

from tests.service.test_smoke import REPO_SRC, _spawn_daemon, _stop

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

SUBSET_SPEC = normalize_job(
    {"kind": "subset", "mapping": "Decomposition", "max_facts": 2}
)
UNIQUE_SPEC = normalize_job({"kind": "unique", "mapping": "Projection"})


@pytest.fixture(autouse=True)
def _clean():
    reset_all_caches()
    reset_engine_stats()
    yield
    reset_all_caches()
    reset_engine_stats()


def _run(spec, **kwargs):
    reset_all_caches()
    spec = dict(spec)
    kwargs.setdefault("budget", budget_for(spec))
    return execute_job(spec, **kwargs)


class TestByteIdentityUnderFaults:
    """Fault-free rendering == faulted rendering, byte for byte."""

    @pytest.mark.parametrize(
        "schedule",
        [
            "store.read:p=0.4,seed=11",
            "store.write:every=2",
            "store.read:p=0.3,seed=3;store.write:p=0.3,seed=5",
        ],
        ids=["read-p", "write-every", "read-and-write"],
    )
    def test_store_faults_never_change_the_verdict(self, tmp_path, schedule):
        baseline = _run(SUBSET_SPEC)
        with use_store(tmp_path / "chaos.sqlite"):
            with fault_scope(schedule):
                faulted = _run(SUBSET_SPEC)
            injected = engine_stats().counter("faults_injected")
        assert injected >= 1, "the schedule never fired — not a chaos run"
        assert faulted.rendering == baseline.rendering
        assert faulted.state == baseline.state
        assert faulted.exit_code == baseline.exit_code

    def test_dropped_journal_flushes_never_change_the_verdict(self, tmp_path):
        baseline = _run(SUBSET_SPEC)
        journal = CheckpointJournal(str(tmp_path / "journal.json"), interval=1)
        with fault_scope("journal.flush:every=2"):
            faulted = _run(SUBSET_SPEC, checkpoint=journal)
        assert engine_stats().counter("fault_journal_flush") >= 1
        assert faulted.rendering == baseline.rendering
        assert faulted.exit_code == baseline.exit_code

    @needs_fork
    def test_worker_kill_through_the_plane_matches_serial(self):
        baseline = _run({**SUBSET_SPEC, "workers": 1})
        with fault_scope("worker.kill:task=1"):
            faulted = _run({**SUBSET_SPEC, "workers": 2})
        assert faulted.rendering == baseline.rendering
        assert engine_stats().worker_faults >= 1

    def test_budget_expiry_is_a_clean_partial(self):
        with fault_scope({"budget.expire": {"resource": "instances", "after": 4}}):
            faulted = _run({**SUBSET_SPEC, "deadline": 3600.0})
        assert faulted.state == "partial"
        assert faulted.exit_code == 3
        assert faulted.coverage == "deadline"
        assert "coverage: deadline" in faulted.rendering


class TestCorruptionAndFsck:
    """fsck detects 100% of injected corruption; the repaired store
    reproduces identical verdicts."""

    def _mangle_store(self, path):
        """Corrupt rows four different ways; returns how many."""
        connection = sqlite3.connect(path)
        rows = connection.execute(
            "SELECT cache, key, value, engine FROM entries"
            " ORDER BY cache, key"
        ).fetchall()
        assert len(rows) >= 8, "sweep too small to fuzz"
        victims = rows[:: max(1, len(rows) // 8)][:8]
        with connection:
            for which, (cache_name, digest, payload, engine) in enumerate(
                victims
            ):
                if which % 4 == 0:
                    mutation = ("UPDATE entries SET value = value || 'X'", ())
                elif which % 4 == 1:
                    # Drop the last character — shrinks even the
                    # single-character verdict payloads.
                    mutation = (
                        "UPDATE entries SET value ="
                        " substr(value, 1, length(value) - 1)",
                        (),
                    )
                elif which % 4 == 2:
                    mutation = ("UPDATE entries SET checksum = 'bad'", ())
                else:
                    # Transplant: re-checksum under a foreign engine
                    # stamp so only the version check can catch it.
                    mutation = (
                        "UPDATE entries SET engine = 'evil',"
                        " checksum = ?",
                        (entry_checksum(cache_name, digest, payload, "evil"),),
                    )
                connection.execute(
                    mutation[0] + " WHERE cache = ? AND key = ?",
                    mutation[1] + (cache_name, digest),
                )
        connection.close()
        return len(victims)

    def test_fsck_detects_all_injected_store_corruption(self, tmp_path):
        path = str(tmp_path / "chaos.sqlite")
        with use_store(path):
            baseline = _run(SUBSET_SPEC)
        injected = self._mangle_store(path)

        report = fsck_store(path)
        assert report.corrupt == injected  # 100% detection
        assert not report.clean and report.repaired == 0

        repaired = fsck_store(path, repair=True)
        assert repaired.corrupt == injected
        assert repaired.quarantined == injected
        assert repaired.repaired == injected
        assert fsck_store(path).clean  # audit after repair: spotless

        # The repaired store serves the surviving rows and recomputes
        # the quarantined ones — identical verdict either way.
        with use_store(path) as store:
            warm = _run(SUBSET_SPEC)
            assert store.hits > 0
        assert warm.rendering == baseline.rendering
        assert warm.exit_code == baseline.exit_code

    def test_online_reads_survive_the_same_corruption(self, tmp_path):
        path = str(tmp_path / "chaos.sqlite")
        with use_store(path):
            baseline = _run(SUBSET_SPEC)
        injected = self._mangle_store(path)
        with use_store(path) as store:
            warm = _run(SUBSET_SPEC)
            assert store.integrity_errors >= 1
            assert store.quarantine_count() >= 1
            assert store.integrity_errors <= injected
        assert warm.rendering == baseline.rendering

    def test_truncated_journal_restarts_cleanly(self, tmp_path):
        path = str(tmp_path / "journal.json")
        journal = CheckpointJournal(path, interval=1)
        partial = _run(
            {**SUBSET_SPEC, "max_instances": 4}, checkpoint=journal
        )
        assert partial.state == "partial"
        raw = open(path, "r", encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(raw[: len(raw) // 2])  # torn mid-write

        baseline = _run(SUBSET_SPEC)
        resumed = _run(
            SUBSET_SPEC, checkpoint=CheckpointJournal(path, interval=1)
        )
        assert resumed.rendering == baseline.rendering
        assert resumed.state == baseline.state

    def test_tampered_journal_entry_is_dropped_and_fsck_repairs(self, tmp_path):
        path = str(tmp_path / "journal.json")
        partial = _run(
            {**SUBSET_SPEC, "max_instances": 4},
            checkpoint=CheckpointJournal(path, interval=1),
        )
        assert partial.state == "partial"
        state = json.loads(open(path, "r", encoding="utf-8").read())
        victim = next(key for key in state if key != "__meta__")
        state[victim]["verified_upto"] = 10_000  # lie about progress
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)

        report = fsck_checkpoint(path)
        assert report.corrupt >= 1 and not report.clean
        repaired = fsck_checkpoint(path, repair=True)
        assert repaired.repaired >= 1
        assert os.path.exists(path + ".quarantine.json")
        assert fsck_checkpoint(path).clean

        baseline = _run(SUBSET_SPEC)
        resumed = _run(
            SUBSET_SPEC, checkpoint=CheckpointJournal(path, interval=1)
        )
        assert resumed.rendering == baseline.rendering
        # fsck already removed the lie
        assert engine_stats().counter("checkpoint_corrupt_entries") == 0


def _spawn_raw(state_dir, env_extra):
    """Spawn a daemon subprocess without waiting for readiness (the
    chaos schedules may SIGKILL it before the endpoint file lands)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    for name in (
        "REPRO_FAULTS",
        "REPRO_ON_FAULT",
    ):
        env.pop(name, None)
    env.update(env_extra)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
            "--max-jobs",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        start_new_session=True,  # its own process group, which _stop kills
    )


class TestDaemonKill:
    """SIGKILL (not SIGTERM: no drain, no checkpoint flush, no clean
    marker) at the two nastiest job boundaries; restarts converge."""

    PAYLOAD = {"kind": "unique", "mapping": "Projection"}

    def test_kill_before_finalize_then_restart_completes(self, tmp_path):
        state = tmp_path / "state"
        # at=2: the first consult (before execute) passes, the second
        # (after execute, before finalize) kills — the job has done all
        # its work and the daemon dies holding the unfinalized outcome.
        process, client = _spawn_daemon(
            state, env_extra={"REPRO_FAULTS": "daemon.kill:at=2"}
        )
        try:
            job = client.submit(dict(self.PAYLOAD))
            job_id = job["id"]
            process.wait(timeout=120)
            assert process.returncode == -signal.SIGKILL
        finally:
            _stop(process)

        persisted = json.loads(
            (state / "jobs.json").read_text(encoding="utf-8")
        )
        assert persisted.get("clean") is False  # no drain happened
        assert persisted["jobs"][0]["state"] in ("queued", "running")

        process, client = _spawn_daemon(state)
        try:
            status, body = client.result(job_id, wait=120)
            assert status == 422  # Projection genuinely violates unique
            assert body["state"] == "violated"
            assert body["attempts"] == 1  # the crash was charged
            events = [event["event"] for event in body["events"]]
            assert "requeued" in events
        finally:
            _stop(process, client)

    def test_repeated_kills_quarantine_the_poison_job(self, tmp_path):
        state = tmp_path / "state"
        chaos_env = {
            "REPRO_FAULTS": "daemon.kill",  # every job execution kills
            "REPRO_SERVICE_JOB_RETRIES": "1",
        }
        process, client = _spawn_daemon(state, env_extra=chaos_env)
        try:
            job = client.submit(dict(self.PAYLOAD))
            job_id = job["id"]
            process.wait(timeout=120)
            assert process.returncode == -signal.SIGKILL
        finally:
            _stop(process)

        # Restart under the same chaos: the requeued job (attempt 1,
        # within budget) runs again and kills the daemon again.
        process = _spawn_raw(state, chaos_env)
        try:
            process.wait(timeout=120)
        finally:
            _stop(process)
        assert process.returncode == -signal.SIGKILL

        # Third start: attempts exceed the budget at load time, the
        # job quarantines as faulted, and the daemon *stays up*.
        process, client = _spawn_daemon(state, env_extra=chaos_env)
        try:
            status, body = client.result(job_id, wait=60)
            assert status == 424 and body["state"] == "faulted"
            assert body["quarantined"] is True
            assert body["attempts"] == 2
            assert "quarantined" in body["outcome"]["rendering"]
            # The daemon is healthy and serves fresh (non-poison) work.
            assert client.health()["ready"] is True
        finally:
            _stop(process, client)


class TestClientChaosAgainstLiveDaemon:
    def test_dropped_and_reset_connections_are_idempotent(self, tmp_path):
        process, client = _spawn_daemon(
            tmp_path / "state",
            # Slow pool tasks: the job must still be in flight when the
            # retried duplicate submit arrives.
            env_extra={"REPRO_FAULTS": "worker.delay:task=*,seconds=0.2"},
        )
        try:
            payload = {
                "kind": "subset",
                "mapping": "Decomposition",
                "max_facts": 2,
                "workers": 2,
            }
            # Drop: the request never reaches the daemon; the retry
            # carries the identical payload.
            with fault_scope("client.drop:at=1"):
                first = client.submit(dict(payload))
            assert engine_stats().counter("fault_client_drop") == 1
            assert engine_stats().counter("client_retries") == 1
            assert not first["was_deduplicated"]

            # Reset: the daemon *processed* the submit but the client
            # never saw the response — the lost-response window.  The
            # retry must re-attach to the same job, not queue a second
            # chase: that is the content-addressed idempotency key.
            with fault_scope("client.reset:at=1"):
                second = client.submit(dict(payload))
            assert engine_stats().counter("fault_client_reset") == 1
            assert second["id"] == first["id"]
            assert second["was_deduplicated"]

            status, body = client.result(first["id"], wait=120)
            assert status == 200 and body["state"] == "done"
            stats = client.stats()
            assert stats["jobs_submitted"] == 1
            assert stats["jobs_executed"] == 1  # one chase, ever
            # Both phantom submissions joined as dedup hits.
            assert stats["dedup_hits"] == 2
        finally:
            _stop(process, client)

"""End-to-end smoke: a real daemon subprocess, driven over HTTP.

These are the tests CI's ``service-smoke`` job runs: exit-code/HTTP
parity for all four terminal verdicts, observable deduplication (two
identical submissions cost one chase), byte-identity against the CLI's
``check`` verb, and the SIGTERM -> checkpoint -> restart -> resume
cycle.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn_daemon(state_dir, *, env_extra=None, max_jobs=2):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_ON_FAULT", None)
    env.update(env_extra or {})
    process = subprocess.Popen(
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
            str(max_jobs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    endpoint_file = os.path.join(str(state_dir), "service.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died at startup:\n{process.stdout.read()}"
            )
        try:
            with open(endpoint_file, "r", encoding="utf-8") as handle:
                endpoint = json.load(handle)
            if endpoint.get("pid") == process.pid:
                break
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    else:
        process.kill()
        raise AssertionError("daemon did not write its endpoint file")
    client = ServiceClient(f"http://{endpoint['host']}:{endpoint['port']}")
    return process, client


def _stop(process, client=None):
    if process.poll() is None:
        try:
            if client is not None:
                client.shutdown()
        except Exception:
            pass
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5)


@pytest.fixture()
def daemon(tmp_path):
    process, client = _spawn_daemon(tmp_path / "state")
    yield client
    _stop(process, client)


class TestParity:
    """HTTP statuses of /result mirror the CLI exit codes exactly."""

    def test_done_200_exit_0(self, daemon):
        job = daemon.submit({"kind": "invertibility", "mapping": "Example5.4"})
        status, body = daemon.result(job["id"], wait=60)
        assert (status, body["exit_code"]) == (200, 0)
        assert body["state"] == "done"
        assert "verdict: all bounded checks pass" in body["outcome"]["rendering"]

    def test_violated_422_exit_1(self, daemon):
        job = daemon.submit({"kind": "unique", "mapping": "Projection"})
        status, body = daemon.result(job["id"], wait=60)
        assert (status, body["exit_code"]) == (422, 1)
        assert body["state"] == "violated"

    def test_partial_206_exit_3(self, daemon):
        job = daemon.submit(
            {
                "kind": "subset",
                "mapping": "Decomposition",
                "max_facts": 2,
                "max_instances": 4,
            }
        )
        status, body = daemon.result(job["id"], wait=60)
        assert (status, body["exit_code"]) == (206, 3)
        assert body["state"] == "partial"
        assert body["outcome"]["coverage"] == "budget"

    def test_bad_payload_is_400(self, daemon):
        from repro.errors import ServiceProtocolError

        with pytest.raises(ServiceProtocolError):
            daemon.submit({"kind": "subset", "mapping": "NoSuchMapping"})
        # a reverse mapping that cannot read the forward target is
        # refused at submit, not retried and quarantined as poison
        with pytest.raises(ServiceProtocolError, match="target schema"):
            daemon.submit(
                {"kind": "roundtrip", "mapping": "Projection", "reverse": "Projection"}
            )


class TestFaultedParity:
    def test_faulted_424_exit_4(self, tmp_path):
        process, client = _spawn_daemon(
            tmp_path / "state",
            env_extra={
                "REPRO_FAULTS": "worker.kill:task=0",
                "REPRO_ON_FAULT": "raise",
            },
        )
        try:
            job = client.submit(
                {
                    "kind": "subset",
                    "mapping": "Decomposition",
                    "max_facts": 2,
                    "workers": 2,
                }
            )
            status, body = client.result(job["id"], wait=120)
            assert (status, body["exit_code"]) == (424, 4)
            assert body["state"] == "faulted"
        finally:
            _stop(process, client)


class TestDeduplication:
    def test_identical_jobs_cost_one_chase(self, tmp_path):
        process, client = _spawn_daemon(
            tmp_path / "state",
            # Slow every pool task down so the duplicate submission
            # arrives while the first job is still in flight.
            env_extra={"REPRO_FAULTS": "worker.delay:task=*,seconds=0.2"},
        )
        try:
            payload = {
                "kind": "subset",
                "mapping": "Decomposition",
                "max_facts": 2,
                "workers": 2,
            }
            first = client.submit(payload)
            second = client.submit(dict(payload))
            assert not first["was_deduplicated"]
            assert second["was_deduplicated"]
            assert second["id"] == first["id"]
            status, body = client.result(first["id"], wait=120)
            assert status == 200
            stats = client.stats()
            assert stats["dedup_hits"] == 1
            assert stats["jobs_submitted"] == 1
            assert stats["jobs_executed"] == 1  # a single chase ran
            assert stats["engine"]["service_dedup_hits"] == 1
        finally:
            _stop(process, client)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "invertibility", "mapping": "Example5.4"},
            {"kind": "unique", "mapping": "Projection"},
            {"kind": "subset", "mapping": "Decomposition", "max_facts": 2},
        ],
        ids=["invertibility", "unique", "subset"],
    )
    def test_service_rendering_equals_cli_check(self, daemon, payload):
        job = daemon.submit(payload)
        _status, body = daemon.result(job["id"], wait=120)
        rendering = body["outcome"]["rendering"]

        argv = [sys.executable, "-m", "repro.cli", "check", payload["kind"],
                payload["mapping"]]
        if "max_facts" in payload:
            argv += ["--max-facts", str(payload["max_facts"])]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
        env.pop("REPRO_FAULTS", None)
        completed = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=300
        )
        assert completed.stdout == rendering + "\n"
        assert completed.returncode == body["exit_code"]


class TestSubmitVerb:
    def test_submit_takes_the_job_flags_of_check(self, daemon, capsys):
        """``submit`` and ``check`` share one job parser: an algebra
        job's ``--check`` and ``--plan`` reach the daemon, and the
        printed report and exit code equal ``repro.cli check``'s."""
        from repro.cli import main as cli_main
        from repro.service.__main__ import main as service_main

        argv = [
            "algebra",
            "compose(Decomposition, Decomposition')",
            "--check",
            "subset",
            "--plan",
            "membership",
            "--max-facts",
            "2",
        ]
        code = service_main(
            ["submit", *argv, "--server", daemon.base_url, "--wait", "120"]
        )
        submitted = capsys.readouterr().out
        [job] = daemon.jobs()["jobs"]
        assert (job["spec"]["check"], job["spec"]["plan"]) == ("subset", "membership")
        assert cli_main(["check", *argv]) == code
        assert capsys.readouterr().out == submitted
        assert "subset property (~M,~M)" in submitted


class TestDrainResume:
    def test_sigterm_checkpoints_and_restart_resumes(self, tmp_path):
        state = tmp_path / "state"
        process, client = _spawn_daemon(
            state, env_extra={"REPRO_FAULTS": "worker.delay:task=*,seconds=0.3"}
        )
        job_id = None
        try:
            job = client.submit(
                {
                    "kind": "subset",
                    "mapping": "Decomposition",
                    "max_facts": 2,
                    "workers": 2,
                }
            )
            job_id = job["id"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.job(job_id)["state"] == "running":
                    break
                time.sleep(0.05)
            time.sleep(2.5)  # let a contiguous prefix of pool tasks finish
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        finally:
            _stop(process)

        journals = [
            name
            for name in os.listdir(state)
            if name.startswith("job-") and name.endswith(".ckpt.json")
        ]
        assert journals, "drain must flush a checkpoint journal"
        persisted = json.loads((state / "jobs.json").read_text(encoding="utf-8"))
        assert persisted["jobs"][0]["state"] == "queued"

        process, client = _spawn_daemon(
            state, env_extra={"REPRO_FAULTS": "worker.delay:task=*,seconds=0.05"}
        )
        try:
            status, body = client.result(job_id, wait=120)
            assert status == 200
            assert body["state"] == "done"
            assert body["resumed_prefix"] > 0  # the journal was honoured
            events = [event["event"] for event in body["events"]]
            assert "requeued" in events and "resumed" in events
        finally:
            _stop(process, client)

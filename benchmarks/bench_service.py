"""Acceptance gate for the checking service's warm-state promise.

Three promises, checked against a real daemon subprocess:

1. **Warm-over-cold latency** — the daemon's reason to exist is that
   N checks cost N× the engine work but only 1× the process state
   (interpreter boot, imports, intern table, compiled join plans,
   chase/verdict memo caches).  The gate: answering the whole job
   catalog below from a *warm* daemon (server-side ``seconds``, every
   job a fresh execution — the priming pass's checkpoint journals are
   gone) must be at least ``--min-speedup`` (default 5×) faster than
   answering it the cold way, one fresh ``python -m repro.cli check``
   process per question.  The headline workload is an orbit-reduced
   subset-property sweep of Example 5.4 over the |domain| = 4
   universe; small catalog checks ride along because amortizing fixed
   state over many requests is exactly the service use case.
2. **Byte-identity** — for every catalog job, the rendering embedded
   in the service response must equal, byte for byte, what
   ``python -m repro.cli check`` prints for the same question in a
   fresh process — and the HTTP-carried exit code must equal the
   CLI's.  The experiment kind is additionally checked against the
   ``python -m repro.cli run`` report body it embeds.
3. **Restart survival** — after the warm pass the daemon is shut down
   and a new one started on the same state directory; every job id of
   both passes must come back from the queue journal with the same
   state, exit code and rendering ("terminal reports survive restarts
   verbatim").
4. **One command line, two front ends** — ``python -m repro.service
   submit ARGV --server URL --wait 600`` against the restarted daemon
   must print what ``python -m repro.cli check ARGV`` prints and exit
   with its code, for a plain job and for an algebra job that uses
   ``--check`` and ``--plan`` (:data:`SUBMIT_ARGVS`).

Usage (CI runs this)::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import json
import os
from contextlib import suppress
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.service.client import ServiceClient  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for knob in ("REPRO_FAULTS", "REPRO_ON_FAULT", "REPRO_STORE",
                 "REPRO_CHECKPOINT"):
        env.pop(knob, None)
    return env


def _spawn_daemon(state_dir: str):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--port", "0", "--state-dir", state_dir, "--max-jobs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=_env(), text=True,
        start_new_session=True,  # its own process group, which _stop_daemon kills
    )
    endpoint_file = os.path.join(state_dir, "service.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"daemon died:\n{process.stdout.read()}")
        try:
            with open(endpoint_file, "r", encoding="utf-8") as handle:
                endpoint = json.load(handle)
            if endpoint.get("pid") == process.pid:
                break
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    else:
        os.killpg(process.pid, signal.SIGKILL)
        raise RuntimeError("daemon did not write its endpoint file")
    return process, ServiceClient(f"http://{endpoint['host']}:{endpoint['port']}")


def _submit_and_wait(client: ServiceClient, payload: dict):
    job = client.submit(dict(payload))
    _status, body = client.result(job["id"], wait=600)
    if body.get("outcome") is None:
        raise RuntimeError(f"job did not settle: {body}")
    return body


def _verdict(body: dict):
    """What a restart must preserve of a terminal job."""
    return body["state"], body["exit_code"], body["outcome"]["rendering"]


def _stop_daemon(process, client: ServiceClient) -> None:
    with suppress(Exception):  # killed below either way
        client.shutdown()
        process.wait(timeout=15)
    with suppress(ProcessLookupError):  # its process group: it and any pool worker it left
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()


def _cli_argv(payload: dict):
    argv = [sys.executable, "-m", "repro.cli", "check", payload["kind"]]
    argv.append(payload.get("experiment") or payload["mapping"])
    if "domain" in payload:
        argv += ["--domain", ",".join(payload["domain"])]
    for flag in ("max_facts", "symmetry", "backend"):
        if flag in payload:
            argv += [f"--{flag.replace('_', '-')}", str(payload[flag])]
    return argv


def _cli_check(payload: dict):
    """(stdout, exit code, wall seconds) of one cold CLI process."""
    started = time.perf_counter()
    completed = subprocess.run(
        _cli_argv(payload), capture_output=True, text=True,
        env=_env(), timeout=600,
    )
    return completed.stdout, completed.returncode, time.perf_counter() - started


def _label(payload: dict) -> str:
    return f"{payload['kind']}:{payload.get('experiment') or payload['mapping']}"


#: The job catalog: the orbit-reduced Example 5.4 subset sweep is the
#: headline; the rest are the terminal-state spread (pass / violated)
#: every CI run should exercise.
CATALOG = [
    {"kind": "subset", "mapping": "Example5.4",
     "domain": ["a", "b", "c", "d"], "max_facts": 2,
     "symmetry": "orbits", "backend": "kernel"},
    {"kind": "invertibility", "mapping": "Example5.4"},
    {"kind": "invertibility", "mapping": "Projection"},
    {"kind": "unique", "mapping": "Projection"},
    {"kind": "subset", "mapping": "Decomposition", "max_facts": 2},
    {"kind": "experiment", "experiment": "E4"},
]


#: Job command lines that ``submit`` and ``check`` must answer alike.
SUBMIT_ARGVS = [
    ["unique", "Projection"],
    ["algebra", "compose(Decomposition, Decomposition')",
     "--check", "subset", "--plan", "membership", "--max-facts", "2"],
]


def _submit_matches_check(url: str, job_argv) -> list:
    """Failures of one ``submit`` vs ``check`` comparison."""
    submitted = subprocess.run(
        [sys.executable, "-m", "repro.service", "submit", *job_argv,
         "--server", url, "--wait", "600"],
        capture_output=True, text=True, env=_env(), timeout=660,
    )
    checked = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", *job_argv],
        capture_output=True, text=True, env=_env(), timeout=600,
    )
    label = " ".join(job_argv[:2])
    failures = []
    if submitted.stdout != checked.stdout or not checked.stdout:
        failures.append(f"submit {label}: stdout differs from `repro.cli check`")
    if submitted.returncode != checked.returncode:
        failures.append(
            f"submit {label}: exit codes differ (submit "
            f"{submitted.returncode}, check {checked.returncode})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required warm-over-cold latency factor over the catalog",
    )
    args = parser.parse_args(argv)

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        state_dir = os.path.join(tmp, "state")
        process, client = _spawn_daemon(state_dir)
        try:
            # -- pass 1: prime the daemon; gate byte-identity --------
            cold_wall = 0.0
            renderings = {}
            verdicts = {}  # job id -> what a restart must preserve
            print(f"{'job':<30} {'cli(cold)':>10} {'daemon(prime)':>14}")
            for payload in CATALOG:
                body = _submit_and_wait(client, payload)
                verdicts[body["id"]] = _verdict(body)
                rendering = body["outcome"]["rendering"]
                renderings[_label(payload)] = rendering
                stdout, code, wall = _cli_check(payload)
                cold_wall += wall
                print(f"{_label(payload):<30} {wall:9.3f}s "
                      f"{body['outcome']['seconds']:13.3f}s")
                if stdout != rendering + "\n":
                    failures.append(
                        f"{_label(payload)}: rendering differs from "
                        f"`repro.cli check`"
                    )
                if code != body["exit_code"]:
                    failures.append(
                        f"{_label(payload)}: exit codes differ "
                        f"(service {body['exit_code']}, cli {code})"
                    )
                if payload["kind"] == "experiment":
                    run = subprocess.run(
                        [sys.executable, "-m", "repro.cli", "run",
                         payload["experiment"]],
                        capture_output=True, text=True, env=_env(),
                        timeout=600,
                    )
                    if not run.stdout.startswith(rendering + "\n"):
                        failures.append(
                            f"{_label(payload)}: `repro.cli run` body "
                            f"differs from the service rendering"
                        )

            # -- pass 2: the warm catalog ----------------------------
            warm_seconds = 0.0
            primed_ids = set()
            for payload in CATALOG:
                body = _submit_and_wait(client, payload)
                if body["id"] in primed_ids:
                    failures.append(f"{_label(payload)}: warm run was not "
                                    f"a fresh execution")
                primed_ids.add(body["id"])
                verdicts[body["id"]] = _verdict(body)
                warm_seconds += body["outcome"]["seconds"]
                if body["outcome"]["rendering"] != renderings[_label(payload)]:
                    failures.append(
                        f"{_label(payload)}: warm rendering differs "
                        f"from the priming run"
                    )

            stats = client.stats()
            if stats["jobs_executed"] < 2 * len(CATALOG):
                failures.append(
                    "warm pass reused terminal results instead of "
                    f"re-executing (jobs_executed={stats['jobs_executed']})"
                )

            speedup = cold_wall / warm_seconds if warm_seconds else float("inf")
            print(f"\ncold: one fresh CLI process per question "
                  f"-> {cold_wall:8.3f}s")
            print(f"warm: the same catalog, warm daemon       "
                  f"-> {warm_seconds:8.3f}s")
            print(f"warm-over-cold speedup: {speedup:.2f}x")
            if speedup < args.min_speedup:
                failures.append(
                    f"speedup {speedup:.2f}x below the "
                    f"{args.min_speedup}x gate"
                )

            # -- restart: both passes come back from the journal -----
            _stop_daemon(process, client)
            process, client = _spawn_daemon(state_dir)
            for job_id, expected in verdicts.items():
                _status, body = client.result(job_id)
                if body.get("outcome") is None or _verdict(body) != expected:
                    failures.append(
                        f"{job_id}: state, exit code or rendering changed "
                        f"across a daemon restart"
                    )
            print(f"restart: {len(verdicts)} terminal jobs restored")

            # -- submit: the check command line, through the daemon --
            for job_argv in SUBMIT_ARGVS:
                failures += _submit_matches_check(client.base_url, job_argv)
            print(f"submit: {len(SUBMIT_ARGVS)} command lines compared "
                  f"with `repro.cli check`")
        finally:
            _stop_daemon(process, client)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench_service: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

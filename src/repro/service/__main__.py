"""Entry point: ``python -m repro.service {serve,submit,status,stats,shutdown}``.

``serve`` runs the warm-state daemon in the foreground; ``submit`` /
``status`` / ``stats`` / ``shutdown`` are thin-client verbs that
discover the daemon through ``--server``, ``REPRO_SERVICE_URL``, or
the state directory's endpoint file (see
:mod:`repro.service.client`).

``submit`` takes the job flags of ``repro.cli check``
(:func:`repro.service.protocol.add_job_flags`), so one command line
describes one job either way.

Environment knobs (flags win), read through :mod:`repro.service.knobs`
when they are needed: ``REPRO_SERVICE_HOST``, ``REPRO_SERVICE_PORT``,
``REPRO_SERVICE_MAX_JOBS``, ``REPRO_SERVICE_JOB_DEADLINE``,
``REPRO_SERVICE_JOB_RETRIES``, ``REPRO_SERVICE_STATE``, and the
client's (see :mod:`repro.service.client`).

Exit codes mirror the CLI wherever a job reaches a terminal state:
0 done / 1 violated / 3 partial / 4 faulted / 5 cancelled; 2 for
usage errors, a knob value that does not parse included, and an
unreachable daemon.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any, Dict, List, Optional

from repro.engine import resize_caches, set_defaults
from repro.engine.cache import cache_capacity
from repro.engine.context import BACKEND_MODES, SYMMETRY_MODES
from repro.errors import ServiceError
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, discover_endpoint, state_dir
from repro.service.knobs import knob, port_number
from repro.service.protocol import add_job_flags, backend_flag, build_payload
from repro.service.queue import JobQueue


# -- serve -----------------------------------------------------------------


def _configure_daemon_engine(arguments: argparse.Namespace) -> Dict[str, Any]:
    """Install the daemon-wide engine defaults (jobs may override the
    per-sweep ones in their specs); returns the previous defaults."""
    if arguments.cache_size is not None:
        resize_caches(arguments.cache_size)
    fields = {
        flag: getattr(arguments, flag)
        for flag in ("workers", "backend", "store", "symmetry")
        if getattr(arguments, flag, None) is not None
    }
    return set_defaults(**fields)


async def _serve(arguments: argparse.Namespace) -> int:
    import faulthandler

    try:
        faulthandler.register(signal.SIGUSR1)  # live thread dump for ops
    except (AttributeError, ValueError):
        pass
    host = knob("REPRO_SERVICE_HOST", arguments.host)
    port = knob("REPRO_SERVICE_PORT", arguments.port)
    state = state_dir(arguments.state_dir)
    queue = JobQueue(
        state,
        max_jobs=knob("REPRO_SERVICE_MAX_JOBS", arguments.max_jobs),
        job_deadline=knob("REPRO_SERVICE_JOB_DEADLINE", arguments.job_deadline),
        max_retries=arguments.job_retries,
    )
    _configure_daemon_engine(arguments)
    requeued = queue.load()
    await queue.start()
    stop = asyncio.Event()
    app = ServiceApp(queue, host=host, port=port, on_shutdown=stop.set)
    await app.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    print(
        f"repro service listening on http://{app.host}:{app.port} "
        f"(state: {state}, max_jobs: {queue.max_jobs})",
        flush=True,
    )
    if requeued:
        print(f"re-queued {requeued} unfinished job(s); sweeps will resume", flush=True)
    await stop.wait()
    print("draining in-flight jobs through the checkpoint journal...", flush=True)
    await app.stop()
    await queue.drain(timeout=arguments.drain_timeout)
    print("service stopped", flush=True)
    return 0


# -- thin-client verbs -----------------------------------------------------


def _client(arguments: argparse.Namespace) -> ServiceClient:
    return ServiceClient(
        discover_endpoint(arguments.server, arguments.state_dir),
        timeout=arguments.timeout,
    )


def _build_payload(arguments: argparse.Namespace) -> Dict[str, Any]:
    if arguments.payload:
        payload = json.loads(arguments.payload)
        if not isinstance(payload, dict):
            raise SystemExit("--payload must be a JSON object")
        return payload
    return build_payload(arguments)


def _print_job(job: Dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(job, indent=2, ensure_ascii=False))
        return
    rendering = (job.get("outcome") or {}).get("rendering")
    if rendering:
        print(rendering)
    else:
        line = f"{job['id']}  {job['state']:<10} kind={job['kind']}"
        if job.get("resumed_prefix"):
            line += f" resumed_prefix={job['resumed_prefix']}"
        if job.get("deduplicated"):
            line += f" deduplicated={job['deduplicated']}"
        print(line)


def _job_exit(job: Dict[str, Any]) -> int:
    code = job.get("exit_code")
    return int(code) if code is not None else 0


def _submit(arguments: argparse.Namespace) -> int:
    client = _client(arguments)
    job = client.submit(_build_payload(arguments))
    if job.get("was_deduplicated"):
        print(
            f"note: identical job already in flight; joined {job['id']}",
            file=sys.stderr,
        )
    if arguments.wait:
        _status, job = client.result(job["id"], wait=arguments.wait)
        _print_job(job, arguments.json)
        return _job_exit(job)
    _print_job(job, arguments.json)
    return 0


def _status(arguments: argparse.Namespace) -> int:
    client = _client(arguments)
    if not arguments.job_id:
        jobs = client.jobs()["jobs"]
        if arguments.json:
            print(json.dumps(jobs, indent=2, ensure_ascii=False))
            return 0
        for job in jobs:
            code = job.get("exit_code")
            print(
                f"{job['id']}  {job['state']:<10} exit={code if code is not None else '-':<3} "
                f"kind={job['kind']} dedup={job.get('deduplicated', 0)}"
            )
        if not jobs:
            print("(no jobs)")
        return 0
    if arguments.events:
        for event in client.events(arguments.job_id, timeout=arguments.timeout):
            print(json.dumps(event))
        job = client.job(arguments.job_id)
        return _job_exit(job)
    if arguments.wait:
        _http, job = client.result(arguments.job_id, wait=arguments.wait)
    else:
        job = client.job(arguments.job_id)
    _print_job(job, arguments.json)
    return _job_exit(job)


def _stats(arguments: argparse.Namespace) -> int:
    print(json.dumps(_client(arguments).stats(), indent=2, ensure_ascii=False))
    return 0


def _shutdown(arguments: argparse.Namespace) -> int:
    _client(arguments).shutdown()
    print("shutdown requested")
    return 0


# -- argument plumbing -----------------------------------------------------


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="daemon base URL (default: REPRO_SERVICE_URL or the "
        "state directory's endpoint file)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="daemon state directory for endpoint discovery "
        "(default: REPRO_SERVICE_STATE or .repro-service)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (seconds)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Checking-as-a-service daemon for the repro engine",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve = subparsers.add_parser("serve", help="run the daemon in the foreground")
    serve.add_argument(
        "--host",
        default=None,
        help="listen address (default REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=port_number,
        default=None,
        help="listen port (0 picks an ephemeral port; default "
        "REPRO_SERVICE_PORT or 8642)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="jobs checked concurrently (REPRO_SERVICE_MAX_JOBS, default 2)",
    )
    serve.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default wall-clock budget per job; jobs that outlive it "
        "finish partial (REPRO_SERVICE_JOB_DEADLINE)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="endpoint file, queue journal, and per-job checkpoint "
        "journals live here (REPRO_SERVICE_STATE, default .repro-service)",
    )
    serve.add_argument(
        "--job-retries",
        type=int,
        default=None,
        metavar="N",
        dest="job_retries",
        help="retries before a crashing job is quarantined as faulted "
        "(REPRO_SERVICE_JOB_RETRIES, default 2)",
    )
    serve.add_argument("--drain-timeout", type=float, default=60.0)
    serve.add_argument("--workers", type=int, default=None, metavar="N")
    serve.add_argument("--cache-size", type=cache_capacity, default=None, metavar="N")
    serve.add_argument("--store", default=None, metavar="PATH")
    serve.add_argument("--backend", type=backend_flag, choices=BACKEND_MODES, default=None)
    serve.add_argument("--symmetry", choices=SYMMETRY_MODES, default=None)

    submit = subparsers.add_parser("submit", help="submit one checking job")
    add_job_flags(submit, target_required=False)
    submit.add_argument(
        "--payload",
        default=None,
        help="raw JSON job payload (overrides the positional form; the "
        "way to submit inline, non-catalog mappings)",
    )
    submit.add_argument(
        "--wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wait for the terminal report and exit with the job's code",
    )
    _add_client_options(submit)

    status = subparsers.add_parser("status", help="job status / listing / events")
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument(
        "--events", action="store_true", help="stream NDJSON events until terminal"
    )
    status.add_argument("--wait", type=float, default=None, metavar="SECONDS")
    _add_client_options(status)

    stats = subparsers.add_parser("stats", help="queue + engine counters")
    _add_client_options(stats)

    shutdown = subparsers.add_parser("shutdown", help="gracefully drain the daemon")
    _add_client_options(shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "serve":
            return asyncio.run(_serve(arguments))
        if arguments.command == "submit":
            if not arguments.target and not arguments.payload:
                print("submit needs a target or --payload", file=sys.stderr)
                return 2
            return _submit(arguments)
        if arguments.command == "status":
            return _status(arguments)
        if arguments.command == "stats":
            return _stats(arguments)
        return _shutdown(arguments)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: run the paper-reproduction experiments.

Usage::

    python -m repro.cli list                  # list experiments
    python -m repro.cli run E11               # one experiment (Figure 1)
    python -m repro.cli run E4 E5 --json      # machine-readable reports
    python -m repro.cli all                   # the whole suite
    python -m repro.cli all --workers 4       # parallel bounded checks
    python -m repro.cli run E2 --engine-stats # phase timings + cache stats
    python -m repro.cli all --deadline 60     # partial verdicts, exit code 3
    python -m repro.cli export Decomposition --format sql
    python -m repro.cli export Example4.5 --format json
    python -m repro.cli check invertibility Example5.4   # one job, in-process
    python -m repro.cli check subset Decomposition --max-facts 2 \
        --server http://127.0.0.1:8642   # same job via a running daemon

Engine knobs: ``--workers`` fans bounded checks across a process pool,
``--cache-size`` (at least 1) bounds every engine memo cache, and
``--engine-stats`` prints per-phase timings and cache hit rates to
stderr after the run.  Every engine flag below but ``--cache-size``
also has a ``REPRO_*`` environment knob, read once at process start
(:mod:`repro.engine.context`); a flag wins, for its own call:
:func:`main` makes the flags the engine's process defaults through
``set_defaults`` (the cache size through ``resize_caches``) and puts
the previous defaults and size back on return.

Governance knobs: ``--deadline`` / ``--max-instances`` /
``--max-chase-steps`` / ``--max-rss-mb`` bound every sweep (the
``REPRO_DEADLINE`` / ``REPRO_MAX_INSTANCES`` / ``REPRO_MAX_CHASE_STEPS``
/ ``REPRO_MAX_RSS_MB`` environment knobs); ``--checkpoint PATH`` keeps
a resumable journal of verified sweep prefixes and ``--resume`` honours
it on the next run.  When a limit trips, checks report *partial*
verdicts instead of crashing.

``--symmetry orbits`` (the ``REPRO_SYMMETRY`` knob) makes every
bounded sweep enumerate one representative per domain-permutation
orbit instead of every universe instance — same verdicts, up to
|domain|! less work — falling back to full sweeps wherever the
reduction would be unsound (mappings mentioning literal constants,
universes not closed under permutation).

``--backend sql`` (``REPRO_BACKEND``) runs chases of 128 facts or
more inside SQLite and everything else on the object backend — same
verdicts and witnesses.  ``--backend kernel``, the name of a compiled
backend since removed, is still accepted and runs on ``object``.

``--store PATH`` (the ``REPRO_STORE`` knob) persists the
content-addressed chase/verdict caches to an on-disk SQLite store
shared across runs, processes, and CI jobs — a warm store makes
re-runs of the same sweeps several times faster.  ``--shards N``
partitions every bounded sweep's outer loop into N content-addressed
shards; with ``--shard-id K`` this process sweeps only shard K
(independent workers coordinate through the ``--checkpoint`` journal's
per-shard entries and lease files, stealing expired leases from dead
workers), without it the process runs every unclaimed shard and merges
the shard reports back into the unsharded report.

Exit codes: 0 — everything passed exhaustively; 1 — a check failed;
2 — usage error; 3 — no failures, but at least one sweep stopped early
on a deadline/budget (coverage ``"deadline"`` / ``"budget"``);
4 — no failures, but a worker fault was left unrecovered (coverage
``"faulted"``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, List, Optional

from repro.engine import coverage_scope, resize_caches, set_defaults
from repro.engine.cache import cache_capacity
from repro.experiments import all_experiment_ids, run_all, run_experiment
from repro.experiments.base import ExperimentReport

#: Exit codes for partial (non-exhaustive) but non-failing runs.
EXIT_PARTIAL = 3
EXIT_FAULTED = 4


def _report_to_json(report: ExperimentReport, elapsed: Optional[float] = None) -> dict:
    payload = {
        "id": report.experiment_id,
        "title": report.title,
        "paper_artifact": report.paper_artifact,
        "passed": report.passed,
        "checks": [
            {"name": check.name, "passed": check.passed, "detail": check.detail}
            for check in report.checks
        ],
        "lines": list(report.lines),
    }
    if elapsed is not None:
        payload["seconds"] = round(elapsed, 3)
    return payload


def _coverage_to_json() -> List[dict]:
    """The partial-verdict events of this run, for JSON consumers."""
    from repro.engine.budget import coverage_events

    return [
        {
            "phase": event.phase,
            "coverage": event.coverage,
            "detail": event.detail,
            "instances_checked": event.instances_checked,
        }
        for event in coverage_events()
    ]


def _command_list() -> int:
    from repro.experiments.registry import _REGISTRY  # noqa: internal listing

    for experiment_id, runner in _REGISTRY.items():
        doc = sys.modules[runner.__module__].__doc__ or ""
        first_line = doc.strip().splitlines()[0] if doc.strip() else ""
        print(f"{experiment_id:>4}  {first_line}")
    return 0


def _command_run(experiment_ids: List[str], as_json: bool) -> int:
    failures = 0
    payloads = []
    for experiment_id in experiment_ids:
        started = time.perf_counter()
        report = run_experiment(experiment_id)
        elapsed = time.perf_counter() - started
        if as_json:
            payloads.append(_report_to_json(report, elapsed))
        else:
            print(report.render())
            print(f"  ({elapsed:.2f}s)")
            print()
        if not report.passed:
            failures += 1
    if as_json:
        coverage = _coverage_to_json()
        if coverage:
            payloads.append({"coverage_events": coverage})
        print(json.dumps(payloads, indent=2, ensure_ascii=False))
    return 1 if failures else 0


def _command_all(as_json: bool) -> int:
    started = time.perf_counter()
    reports = run_all()
    elapsed = time.perf_counter() - started
    if as_json:
        print(
            json.dumps(
                {
                    "experiments": [_report_to_json(r) for r in reports],
                    "passed": sum(r.passed for r in reports),
                    "total": len(reports),
                    "seconds": round(elapsed, 1),
                    "coverage_events": _coverage_to_json(),
                },
                indent=2,
                ensure_ascii=False,
            )
        )
    else:
        for report in reports:
            print(report.render())
            print()
        passed = sum(report.passed for report in reports)
        checks = sum(len(report.checks) for report in reports)
        checks_passed = sum(
            sum(check.passed for check in report.checks) for report in reports
        )
        print(
            f"== SUITE: {passed}/{len(reports)} experiments passed, "
            f"{checks_passed}/{checks} checks, {elapsed:.1f}s =="
        )
    return 0 if all(report.passed for report in reports) else 1


def _command_export(mapping_name: str, output_format: str) -> int:
    from repro.catalog import catalog_by_name

    by_name = catalog_by_name()
    if mapping_name not in by_name:
        print(
            f"unknown mapping {mapping_name!r}; known: {', '.join(sorted(by_name))}",
            file=sys.stderr,
        )
        return 2
    mapping = by_name[mapping_name]
    if output_format == "json":
        from repro.export import mapping_to_json

        print(json.dumps(mapping_to_json(mapping), indent=2, ensure_ascii=False))
        return 0
    from repro.export import SqlExportError, mapping_to_sql

    try:
        print(mapping_to_sql(mapping))
    except SqlExportError as error:
        print(f"no SQL rendering: {error}", file=sys.stderr)
        return 2
    return 0


def _command_check(arguments: argparse.Namespace) -> int:
    """One mapping-checking job, printed and exited exactly as the
    service daemon would report it.

    Byte-identity between the two entry points is by construction:
    with ``--server`` the payload goes to a running daemon and the
    response's embedded rendering is printed verbatim; without it the
    same canonical spec runs in-process through
    :func:`repro.service.jobs.execute_job` — the single place the
    rendering is produced.
    """
    from repro.errors import ServiceError
    from repro.service.protocol import build_payload

    payload = build_payload(arguments)
    try:
        if arguments.server:
            from repro.service.client import ServiceClient

            client = ServiceClient(arguments.server)
            job = client.submit(payload)
            _status, job = client.result(job["id"], wait=arguments.wait)
            outcome = job.get("outcome") or {}
            print(outcome.get("rendering", f"job {job['id']}: {job['state']}"))
            code = job.get("exit_code")
            return int(code) if code is not None else EXIT_PARTIAL
        from repro.service.jobs import budget_for, execute_job
        from repro.service.protocol import normalize_job

        # --checkpoint / --resume reach the checkers as the default journal.
        spec = normalize_job(payload)
        outcome = execute_job(spec, budget=budget_for(spec))
        print(outcome.rendering)
        return outcome.exit_code
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _add_process_options(parser: argparse.ArgumentParser) -> None:
    """The engine flags that only set this process's defaults (the
    per-job ones come from :func:`repro.service.protocol.add_engine_flags`)."""
    parser.add_argument(
        "--cache-size",
        type=cache_capacity,
        default=None,
        metavar="N",
        help="capacity (at least 1) of every engine memo cache",
    )
    parser.add_argument(
        "--engine-stats",
        action="store_true",
        help="print engine phase timings and cache stats to stderr",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MIB",
        help="resident-memory watermark (MiB); sweeps stop when exceeded",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal file recording verified sweep prefixes",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume sweeps from the --checkpoint journal instead of restarting",
    )
    parser.add_argument(
        "--sql-db",
        default=None,
        metavar="PATH",
        help="scratch SQLite database file for --backend sql "
        "(REPRO_SQL_DB); defaults to a per-process in-memory database",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="on-disk content-addressed chase/verdict store (SQLite) "
        "backing the in-memory memo caches as a write-through second "
        "level; shared across runs and processes (REPRO_STORE)",
    )


#: The engine flags that are process defaults, named as their fields.
_DEFAULT_FLAGS = (
    "workers", "backend", "deadline", "max_instances", "max_chase_steps", "max_rss_mb",
    "checkpoint", "symmetry", "sql_db", "store", "shards", "shard_id", "plan",
)


def _configure_engine(arguments: argparse.Namespace) -> Callable[[], None]:
    """Make the given engine flags the process defaults, which forked
    workers and nested checkers all follow, and ``--cache-size`` every
    cache's capacity; returns the function that puts the previous
    defaults and capacity back, for :func:`main` to call on return."""
    fields = {
        flag: getattr(arguments, flag)
        for flag in _DEFAULT_FLAGS
        if getattr(arguments, flag, None) is not None
    }
    if arguments.resume:
        fields["resume"] = True
    previous = set_defaults(**fields)
    if arguments.cache_size is None:
        return lambda: set_defaults(**previous)
    previous_size = resize_caches(arguments.cache_size)

    def restore() -> None:
        resize_caches(previous_size)
        set_defaults(**previous)

    return restore


def _coverage_exit(code: int) -> int:
    """Upgrade a passing exit code when sweeps were cut short.

    Failures keep exit code 1 (a violation found under a budget is
    still a violation); passes degrade to ``EXIT_PARTIAL`` /
    ``EXIT_FAULTED`` so scripts can tell "verified" from "ran out of
    budget while verifying".
    """
    from repro.engine.budget import coverage_events, worst_coverage

    events = coverage_events()
    if code != 0 or not events:
        return code
    worst = worst_coverage(*(event.coverage for event in events))
    summary = ", ".join(
        f"{event.phase}[{event.coverage}"
        f"@{event.instances_checked}]"
        for event in events[:8]
    )
    print(
        f"note: {len(events)} sweep(s) returned partial verdicts "
        f"(worst coverage: {worst}): {summary}",
        file=sys.stderr,
    )
    return EXIT_FAULTED if worst == "faulted" else EXIT_PARTIAL


def _report_engine(arguments: argparse.Namespace) -> None:
    from repro.engine.cache import flush_active_store

    flush_active_store()  # persist the run's store traffic before exit
    if getattr(arguments, "engine_stats", False):
        from repro.engine import engine_stats

        print(engine_stats().render(), file=sys.stderr)


def _command_fsck(arguments: argparse.Namespace) -> int:
    """Audit/repair durable state; exit 0 when everything trustworthy.

    Exit codes: 0 — clean (or every corruption was repaired), 1 —
    corruption found and left in place, 2 — usage error (no target, or
    a target file that does not exist).
    """
    from repro.engine.fsck import fsck_checkpoint, fsck_store

    targets = []
    if arguments.store:
        targets.append(("store", arguments.store, fsck_store))
    if arguments.checkpoint:
        targets.append(("checkpoint", arguments.checkpoint, fsck_checkpoint))
    if not targets:
        print("fsck: nothing to audit (pass --store and/or --checkpoint)",
              file=sys.stderr)
        return 2
    reports = []
    for kind, path, audit in targets:
        if not os.path.exists(path):
            print(f"fsck: no such {kind} file: {path}", file=sys.stderr)
            return 2
        reports.append(audit(path, repair=arguments.repair))
    if arguments.json:
        print(json.dumps([report.to_json() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
    unrepaired = any(
        not report.clean and report.repaired < report.corrupt
        for report in reports
    )
    return 1 if unrepaired else 0


def build_parser() -> argparse.ArgumentParser:
    # The job and per-job engine flags are the service's: one definition
    # serves ``check`` here and ``repro.service submit``.
    from repro.service.protocol import add_engine_flags, add_job_flags

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Quasi-inverses of Schema Mappings' (PODS 2007)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the experiments")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help=f"experiment ids ({', '.join(all_experiment_ids())})",
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable reports"
    )
    add_engine_flags(run_parser)
    _add_process_options(run_parser)

    all_parser = subparsers.add_parser("all", help="run the whole suite")
    all_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable reports"
    )
    add_engine_flags(all_parser)
    _add_process_options(all_parser)

    check_parser = subparsers.add_parser(
        "check",
        help="run one mapping-checking job (the service's job kinds, "
        "in-process or via --server against a running daemon)",
    )
    add_job_flags(check_parser)
    check_parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="submit to a running service daemon instead of checking "
        "in-process; the printed report and exit code are identical",
    )
    check_parser.add_argument(
        "--wait",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="with --server: how long to wait for the terminal report",
    )
    _add_process_options(check_parser)

    export_parser = subparsers.add_parser(
        "export", help="export a catalog mapping as SQL or JSON"
    )
    export_parser.add_argument("mapping", help="catalog mapping name, e.g. Decomposition")
    export_parser.add_argument(
        "--format", choices=("sql", "json"), default="sql", dest="output_format"
    )

    fsck_parser = subparsers.add_parser(
        "fsck",
        help="audit (and optionally repair) a verdict store and/or "
        "checkpoint journal: per-entry checksums, engine stamps, torn files",
    )
    fsck_parser.add_argument(
        "--store", metavar="PATH", help="verdict-store SQLite file to audit"
    )
    fsck_parser.add_argument(
        "--checkpoint", metavar="PATH", help="checkpoint journal to audit"
    )
    fsck_parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt entries and rewrite verified state "
        "(never destroys data: quarantined rows/entries are kept aside)",
    )
    fsck_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable reports"
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "export":
        return _command_export(arguments.mapping, arguments.output_format)
    if arguments.command == "fsck":
        return _command_fsck(arguments)
    restore = _configure_engine(arguments)
    try:
        # Only this call's partial verdicts decide its exit code.
        with coverage_scope():
            if arguments.command == "check":
                return _command_check(arguments)
            if arguments.command == "run":
                return _coverage_exit(
                    _command_run(arguments.experiments, arguments.json)
                )
            return _coverage_exit(_command_all(arguments.json))
    finally:
        _report_engine(arguments)
        restore()


if __name__ == "__main__":
    raise SystemExit(main())

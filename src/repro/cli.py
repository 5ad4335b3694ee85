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

Engine knobs (also settable via the ``REPRO_WORKERS`` environment
variable): ``--workers`` fans bounded checks across a process pool,
``--cache-size`` bounds the chase/verdict memo caches, and
``--engine-stats`` prints per-phase timings and cache hit rates to
stderr after the run.

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

``--backend kernel`` (the ``REPRO_BACKEND`` knob) runs homomorphism
searches, premise matching, and verdict caching on the compiled
integer kernel (term interning + array join plans compiled once per
premise) instead of interpreting the object datamodel — same verdicts,
witnesses, and counters, typically several times faster on sweeps.

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
from typing import List, Optional

from repro.engine import BACKEND_MODES
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
    from repro.catalog import all_catalog_mappings

    by_name = {mapping.name: mapping for mapping in all_catalog_mappings()}
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


def _check_payload(arguments: argparse.Namespace) -> dict:
    """The job payload a ``check`` invocation describes (the same
    canonical shape ``python -m repro.service submit`` produces)."""
    payload: dict = {"kind": arguments.kind}
    if arguments.kind == "experiment":
        payload["experiment"] = arguments.target
        return payload
    if arguments.kind == "algebra":
        payload["expression"] = arguments.target
        if getattr(arguments, "check", None):
            payload["check"] = arguments.check
        if getattr(arguments, "explain_plan", False):
            payload["explain_plan"] = True
    else:
        payload["mapping"] = arguments.target
    if arguments.reverse:
        payload["reverse"] = arguments.reverse
    if arguments.domain:
        payload["domain"] = arguments.domain
    if arguments.max_facts is not None:
        payload["max_facts"] = arguments.max_facts
    for option in (
        "workers",
        "symmetry",
        "backend",
        "shards",
        "shard_id",
        "deadline",
        "max_instances",
        "max_chase_steps",
        "plan",
    ):
        value = getattr(arguments, option, None)
        if value is not None:
            payload[option] = value
    return payload


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

    payload = _check_payload(arguments)
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
        from repro.engine.checkpoint import CheckpointJournal
        from repro.service.jobs import budget_for, execute_job
        from repro.service.protocol import normalize_job

        spec = normalize_job(payload)
        checkpoint = None
        if arguments.checkpoint:
            checkpoint = CheckpointJournal(
                arguments.checkpoint, resume=arguments.resume
            )
        outcome = execute_job(spec, budget=budget_for(spec), checkpoint=checkpoint)
        print(outcome.rendering)
        return outcome.exit_code
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for bounded checks (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="capacity of the engine's chase/verdict memo caches",
    )
    parser.add_argument(
        "--engine-stats",
        action="store_true",
        help="print engine phase timings and cache stats to stderr",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per bounded check; sweeps that outlive it "
        "report partial verdicts (exit code 3 instead of crashing)",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=None,
        metavar="N",
        help="cap on universe instances per sweep before reporting partially",
    )
    parser.add_argument(
        "--max-chase-steps",
        type=int,
        default=None,
        metavar="N",
        help="cap on chase firings per process before reporting partially",
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
        "--symmetry",
        choices=("full", "orbits"),
        default=None,
        help="sweep every universe instance (full, the default) or one "
        "representative per domain-permutation orbit (orbits); orbit "
        "sweeps fall back to full where the reduction would be unsound",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_MODES,
        default=None,
        help="execution backend for bounded checks: interpret the object "
        "datamodel directly (object, the default), run compiled joins "
        "over interned integer ids (kernel), or run the kernel with "
        "chases of 128 facts or more inside SQLite (sql); verdicts and "
        "witnesses are identical either way",
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
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition every bounded sweep's outer loop into N "
        "content-addressed shards (REPRO_SHARDS)",
    )
    parser.add_argument(
        "--shard-id",
        type=int,
        default=None,
        metavar="K",
        help="sweep only shard K of --shards in this process (reports "
        "then cover that shard alone); omit to run/claim every shard "
        "here (REPRO_SHARD_ID)",
    )
    parser.add_argument(
        "--plan",
        choices=("auto", "materialize", "membership"),
        default=None,
        help="evaluation plan for mapping expressions (algebra checks): "
        "let the cost model pick (auto, the default), always "
        "materialize compositions with MinGen first (materialize), or "
        "avoid materializing via staged chases / per-pair membership "
        "checks (membership); verdicts and reports are identical "
        "either way (REPRO_PLAN)",
    )


def _configure_engine(arguments: argparse.Namespace) -> None:
    from repro.engine import resize_caches, set_default_workers

    if getattr(arguments, "workers", None):
        set_default_workers(arguments.workers)
    if getattr(arguments, "cache_size", None):
        resize_caches(arguments.cache_size)
    # Governance flags travel as environment knobs so forked workers
    # and nested checker entry points (Budget.from_env / default_journal)
    # all see them without further plumbing.
    for flag, knob in (
        ("deadline", "REPRO_DEADLINE"),
        ("max_instances", "REPRO_MAX_INSTANCES"),
        ("max_chase_steps", "REPRO_MAX_CHASE_STEPS"),
        ("max_rss_mb", "REPRO_MAX_RSS_MB"),
        ("checkpoint", "REPRO_CHECKPOINT"),
        ("symmetry", "REPRO_SYMMETRY"),
        ("backend", "REPRO_BACKEND"),
        ("sql_db", "REPRO_SQL_DB"),
        ("store", "REPRO_STORE"),
        ("shards", "REPRO_SHARDS"),
        ("shard_id", "REPRO_SHARD_ID"),
        ("plan", "REPRO_PLAN"),
    ):
        value = getattr(arguments, flag, None)
        if value is not None:
            os.environ[knob] = str(value)
    if getattr(arguments, "resume", False):
        os.environ["REPRO_RESUME"] = "1"


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


def main(argv: List[str] | None = None) -> int:
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
    _add_engine_options(run_parser)

    all_parser = subparsers.add_parser("all", help="run the whole suite")
    all_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable reports"
    )
    _add_engine_options(all_parser)

    check_parser = subparsers.add_parser(
        "check",
        help="run one mapping-checking job (the service's job kinds, "
        "in-process or via --server against a running daemon)",
    )
    check_parser.add_argument(
        "kind",
        choices=(
            "experiment",
            "invertibility",
            "subset",
            "unique",
            "roundtrip",
            "algebra",
        ),
    )
    check_parser.add_argument(
        "target",
        help="experiment id (experiment), catalog mapping name, or a "
        "mapping expression like 'compose(Union, Decomposition)' "
        "(algebra)",
    )
    check_parser.add_argument(
        "--reverse",
        default=None,
        help="reverse mapping (roundtrip) or reverse expression "
        "(algebra --check inverse)",
    )
    check_parser.add_argument(
        "--check",
        choices=("unique", "subset", "invertibility", "inverse"),
        default=None,
        help="which bounded check an algebra job runs over its "
        "expression (default: invertibility)",
    )
    check_parser.add_argument(
        "--explain-plan",
        action="store_true",
        help="append the chosen evaluation plan — rewrite trace, cost "
        "estimates vs. actuals — to an algebra report",
    )
    check_parser.add_argument(
        "--domain", default=None, help="comma-separated constants (default a,b)"
    )
    check_parser.add_argument("--max-facts", type=int, default=None)
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
    _add_engine_options(check_parser)

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

    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "export":
        return _command_export(arguments.mapping, arguments.output_format)
    if arguments.command == "fsck":
        return _command_fsck(arguments)
    _configure_engine(arguments)
    try:
        if arguments.command == "check":
            return _command_check(arguments)
        if arguments.command == "run":
            return _coverage_exit(
                _command_run(arguments.experiments, arguments.json)
            )
        return _coverage_exit(_command_all(arguments.json))
    finally:
        _report_engine(arguments)


if __name__ == "__main__":
    raise SystemExit(main())

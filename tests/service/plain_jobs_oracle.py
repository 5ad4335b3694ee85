"""The service's former per-kind executors, kept as a test oracle.

Before plain ``unique`` / ``subset`` / ``invertibility`` jobs ran
through :func:`repro.algebra.sweeps.check_expression` as one-atom
expressions, :mod:`repro.service.jobs` called the checkers directly,
one executor per kind.  This module keeps those three executors
verbatim (their small helpers inlined), so a test can swap them into
``repro.service.jobs._EXECUTORS`` and diff each outcome against the
expression path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.engine.checkpoint import CheckpointJournal
from repro.service.protocol import resolve_mapping


def _universe(mapping, spec: Dict[str, Any]) -> list:
    from repro.workloads import power_instances

    return list(
        power_instances(
            mapping.source, tuple(spec["domain"]), max_facts=spec["max_facts"]
        )
    )


def _sweep_options(spec: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "workers": spec.get("workers"),
        "symmetry": spec.get("symmetry"),
        "backend": spec.get("backend"),
        "shards": spec.get("shards"),
        "shard_id": spec.get("shard_id"),
    }


def _mapping_label(mapping) -> str:
    return mapping.name or "inline"


def run_invertibility_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    from repro.algebra.sweeps import invertibility_lines
    from repro.analysis.classify import classify_mapping
    from repro.analysis.invertibility import invertibility_report

    mapping = resolve_mapping(spec["mapping"])
    classification = classify_mapping(mapping)
    universe = _universe(mapping, spec)
    report = invertibility_report(
        mapping, universe, checkpoint=checkpoint, **_sweep_options(spec)
    )
    lines = invertibility_lines(
        _mapping_label(mapping), classification, universe, report,
        spec["domain"], spec["max_facts"],
    )
    return "\n".join(lines), report.unique_solutions and report.quasi_subset_property.holds


def run_subset_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    from repro.algebra.sweeps import subset_lines
    from repro.core.framework import SolutionEquivalence, subset_property

    mapping = resolve_mapping(spec["mapping"])
    equivalence = SolutionEquivalence(mapping)
    universe = _universe(mapping, spec)
    report = subset_property(
        mapping,
        equivalence,
        equivalence,
        universe,
        stop_at_first_violation=False,
        checkpoint=checkpoint,
        **_sweep_options(spec),
    )
    lines = subset_lines(
        _mapping_label(mapping), universe, report, spec["domain"], spec["max_facts"]
    )
    return "\n".join(lines), report.holds


def run_unique_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    from repro.algebra.sweeps import unique_lines
    from repro.core.framework import unique_solutions_property

    mapping = resolve_mapping(spec["mapping"])
    universe = _universe(mapping, spec)
    # No checkpoint: the unique-solutions sweep carries no journal
    # support (it is the cheap phase; see invertibility_report).
    verdict = unique_solutions_property(mapping, universe, **_sweep_options(spec))
    lines = unique_lines(
        _mapping_label(mapping), universe, verdict, spec["domain"], spec["max_facts"]
    )
    return "\n".join(lines), verdict.ok


#: Job kind -> its former executor.
ORACLE_EXECUTORS = {
    "invertibility": run_invertibility_job,
    "subset": run_subset_job,
    "unique": run_unique_job,
}

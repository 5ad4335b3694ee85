"""Synchronous job execution, shared by the daemon and the CLI.

The service's byte-identity guarantee — a job response embeds exactly
the report body ``python -m repro.cli check`` prints — is not enforced
by comparing strings but by construction: both entry points call
:func:`execute_job` on the same canonical spec, and the rendering is
produced here, once.

A plain ``unique`` / ``subset`` / ``invertibility`` job is the
one-atom expression over its mapping: it runs through
:func:`repro.algebra.sweeps.check_expression`, like an ``algebra``
job, titled with the job's label, so a plain job and an algebra job
over one mapping take one code path.

:func:`execute_job` runs inside a :func:`~repro.engine.budget.coverage_scope`
so concurrent jobs on daemon worker threads keep their partial-verdict
events (and hence their terminal states) separate, and maps the result
onto the job state machine with the CLI's exact semantics: a violation
beats degraded coverage (a violation found under a budget is still a
violation), otherwise ``faulted`` > ``deadline``/``budget`` >
``exhaustive`` selects faulted / partial / done.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.budget import (
    COVERAGE_EXHAUSTIVE,
    Budget,
    coverage_scope,
    use_budget,
    worst_coverage,
)
from repro.engine.checkpoint import CheckpointJournal
from repro.errors import ReproError, ServiceProtocolError
from repro.service.protocol import (
    STATE_DONE,
    STATE_FAULTED,
    STATE_PARTIAL,
    STATE_VIOLATED,
    exit_code_for,
    resolve_mapping,
)


@dataclass
class JobOutcome:
    """What one executed job produced (terminal state + report body)."""

    state: str
    exit_code: int
    rendering: str
    coverage: str = COVERAGE_EXHAUSTIVE
    coverage_events: List[Dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "exit_code": self.exit_code,
            "rendering": self.rendering,
            "coverage": self.coverage,
            "coverage_events": self.coverage_events,
            "seconds": round(self.seconds, 3),
        }


def budget_for(
    spec: Dict[str, Any], default_deadline: Optional[float] = None
) -> Optional[Budget]:
    """The per-job budget a canonical spec asks for, or None when the
    spec carries no limit (sweeps then run under the ambient budget, else
    the process default limits)."""
    deadline = spec.get("deadline", default_deadline)
    max_instances = spec.get("max_instances")
    max_chase_steps = spec.get("max_chase_steps")
    if deadline is None and max_instances is None and max_chase_steps is None:
        return None
    return Budget(
        deadline=deadline,
        max_instances=max_instances,
        max_chase_steps=max_chase_steps,
    )


# -- helpers ---------------------------------------------------------------
#
# Each executor imports the engine and repro.algebra lazily, so the
# daemon and the thin clients start without them.


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


# -- per-kind executors ----------------------------------------------------


def _run_experiment_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    """One registered experiment, whose checkers all follow the job's
    engine options (its budget ones arrive through :func:`budget_for`)."""
    from repro.engine.context import scope
    from repro.experiments import run_experiment

    options = dict(_sweep_options(spec), plan=spec.get("plan"))
    with scope(**{name: value for name, value in options.items() if value is not None}):
        report = run_experiment(spec["experiment"])
    return report.render(), report.passed


def _run_roundtrip_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    from repro.algebra.sweeps import coverage_line, facts_text, header_line
    from repro.dataexchange.recovery import faithful_on, sound_on

    mapping = resolve_mapping(spec["mapping"])
    reverse = resolve_mapping(spec["reverse"])
    universe = _universe(mapping, spec)
    options = _sweep_options(spec)
    options.pop("shards", None)  # round-trip sweeps are unsharded
    options.pop("shard_id", None)
    sound = sound_on(mapping, reverse, universe, checkpoint=checkpoint, **options)
    faithful = faithful_on(mapping, reverse, universe, checkpoint=checkpoint, **options)
    lines = [
        header_line(
            _mapping_label(mapping),
            f"round trip via {_mapping_label(reverse)}",
            spec["domain"],
            spec["max_facts"],
        ),
        f"universe: {len(universe)} instances",
        f"sound: {'yes' if sound.ok else 'VIOLATED'}",
    ]
    for violator in sound.violators[:5]:
        lines.append(f"  violator: {facts_text(violator)}")
    lines.append(f"faithful: {'yes' if faithful.ok else 'VIOLATED'}")
    for violator in faithful.violators[:5]:
        lines.append(f"  violator: {facts_text(violator)}")
    coverage = worst_coverage(sound.coverage, faithful.coverage)
    lines.append(
        coverage_line(
            coverage,
            sound.instances_checked + faithful.instances_checked,
            sound.orbits_checked + faithful.orbits_checked,
        )
    )
    return "\n".join(lines), sound.ok and faithful.ok


def _run_expression_job(
    spec: Dict[str, Any], checkpoint: Optional[CheckpointJournal]
) -> Tuple[str, bool]:
    """An algebra job, or a plain ``unique`` / ``subset`` /
    ``invertibility`` job as the one-atom expression over its mapping,
    titled with the job's label."""
    from repro.algebra.expr import MappingAtom
    from repro.algebra.sweeps import check_expression

    if spec["kind"] == "algebra":
        expression, check, title = spec["expression"], spec["check"], None
    else:
        mapping = resolve_mapping(spec["mapping"])
        expression, check = MappingAtom(mapping=mapping), spec["kind"]
        title = _mapping_label(mapping)
    report = check_expression(
        expression,
        check,
        reverse=spec.get("reverse"),
        title=title,
        domain=tuple(spec["domain"]),
        max_facts=spec["max_facts"],
        plan=spec.get("plan"),
        checkpoint=checkpoint,
        **_sweep_options(spec),
    )
    rendering = report.render()
    if spec.get("explain_plan"):
        rendering = rendering + "\n" + report.explain()
    return rendering, report.holds


_EXECUTORS: Dict[str, Callable[..., Tuple[str, bool]]] = {
    "experiment": _run_experiment_job,
    "invertibility": _run_expression_job,
    "subset": _run_expression_job,
    "unique": _run_expression_job,
    "roundtrip": _run_roundtrip_job,
    "algebra": _run_expression_job,
}


def execute_job(
    spec: Dict[str, Any],
    *,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointJournal] = None,
) -> JobOutcome:
    """Run one canonical job spec to a terminal outcome.

    Never raises for engine-level failures: an unhandled
    :class:`ReproError` (universe too large, chase error, ...) becomes
    a ``faulted`` outcome whose rendering carries the error, so the
    daemon's queue can never wedge on a poisonous job.
    """
    executor = _EXECUTORS.get(spec.get("kind"))
    if executor is None:
        raise ServiceProtocolError(f"unknown job kind {spec.get('kind')!r}")
    started = time.perf_counter()
    error: Optional[ReproError] = None
    rendering, passed = "", False
    with coverage_scope() as events:
        with use_budget(budget):
            try:
                rendering, passed = executor(spec, checkpoint)
            except ReproError as trapped:
                error = trapped
    seconds = time.perf_counter() - started
    event_payload = [
        {
            "phase": event.phase,
            "coverage": event.coverage,
            "detail": event.detail,
            "instances_checked": event.instances_checked,
        }
        for event in events
    ]
    coverage = (
        worst_coverage(*(event.coverage for event in events))
        if events
        else COVERAGE_EXHAUSTIVE
    )
    if error is not None:
        state = STATE_FAULTED
        rendering = f"error: {type(error).__name__}: {error}"
        coverage = "faulted"
    elif not passed:
        state = STATE_VIOLATED
    elif coverage == "faulted":
        state = STATE_FAULTED
    elif coverage in ("deadline", "budget"):
        state = STATE_PARTIAL
    else:
        state = STATE_DONE
    return JobOutcome(
        state=state,
        exit_code=exit_code_for(state),
        rendering=rendering,
        coverage=coverage,
        coverage_events=event_payload,
        seconds=seconds,
    )


__all__ = ["JobOutcome", "budget_for", "execute_job"]

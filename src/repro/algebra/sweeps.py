"""Plan-directed sweeps over mapping expressions.

:func:`check_expression` is the algebra's entry point: parse (or
accept) an expression, normalize it through the rewrite library, let
the planner pick an evaluation strategy, run the requested bounded
check, and render a report that is byte-identical for every plan
mode, backend, and worker count.

The service's plain ``unique`` / ``subset`` / ``invertibility`` jobs
(:mod:`repro.service.jobs`) are checks of the one-atom expression over
their mapping: they call :func:`check_expression` with the job's label
as *title*, so an expression job and a plain job over one mapping run
one code path and print one report.  The report renderers live here
and nowhere else; the service's ``roundtrip`` job builds its report
from the same line helpers.  Report text derives only from the *title*
(by default the original expression label) and sweep verdicts, never
from the names or structure of whatever mapping the plan chose to
evaluate — that is what makes byte-identity across plans hold by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.datamodel.instances import Instance
from repro.core.mapping import MappingError, SchemaMapping
from repro.engine.budget import Budget
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.instrumentation import engine_stats
from repro.engine.context import CONTEXT, scope
from repro.algebra.evaluate import (
    ExpressionPairTest,
    MaterializedPairTest,
    materialize,
    staged_mapping,
)
from repro.algebra.expr import (
    Compose,
    MappingExpr,
    parse_expression,
)
from repro.algebra.plan import ExpressionPlan, plan_expression
from repro.algebra.rewrite import normalize

_ACTUAL_COUNTERS = ("compose_rules_emitted", "membership_candidates_tried")
_ACTUAL_PHASES = ("algebra.materialize", "compose.full", "compose.membership")


@dataclass(frozen=True)
class AlgebraReport:
    """One plan-directed expression check, rendered and explained."""

    kind: str
    title: str
    holds: bool
    lines: Tuple[str, ...]
    plan: ExpressionPlan
    coverage: str
    instances_checked: int = 0
    orbits_checked: int = 0
    actuals: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        return "\n".join(self.lines)

    def explain(self) -> str:
        return self.plan.explain(self.actuals)


# -- report rendering ---------------------------------------------------


def facts_text(instance: Instance) -> str:
    return "{" + ", ".join(str(fact) for fact in instance.sorted_facts()) + "}"


def header_line(name: str, what: str, domain: Sequence[str], max_facts: int) -> str:
    rendered = ",".join(domain)
    return (
        f"== check {name}: {what} over domain {{{rendered}}}, "
        f"max_facts={max_facts} =="
    )


def coverage_line(coverage: str, instances: int, orbits: int) -> str:
    return (
        f"coverage: {coverage} "
        f"(instances_checked={instances}, orbits_checked={orbits})"
    )


def violation_lines(pairs, joiner: str, limit: int = 5) -> List[str]:
    lines = [
        f"  violation: {facts_text(left)} {joiner} {facts_text(right)}"
        for left, right in pairs[:limit]
    ]
    if len(pairs) > limit:
        lines.append(f"  ... and {len(pairs) - limit} more")
    return lines


def unique_lines(title, universe, verdict, domain, max_facts) -> List[str]:
    """The report of a unique-solutions sweep verdict."""
    ok, violations = verdict
    return [
        header_line(title, "unique solutions", domain, max_facts),
        f"universe: {len(universe)} instances",
        f"holds: {'yes' if ok else 'VIOLATED'}",
        *violation_lines(violations, "~"),
        coverage_line(
            verdict.coverage, verdict.instances_checked, verdict.orbits_checked
        ),
    ]


def subset_lines(title, universe, report, domain, max_facts) -> List[str]:
    """The report of a (~M,~M)-subset property check."""
    return [
        header_line(title, "subset property (~M,~M)", domain, max_facts),
        f"universe: {len(universe)} instances",
        f"holds: {'yes' if report.holds else 'VIOLATED'} "
        f"(pairs checked: {report.checked})",
        *violation_lines(report.violations, "|"),
        coverage_line(
            report.coverage, report.instances_checked, report.orbits_checked
        ),
    ]


def invertibility_lines(
    title, classification, universe, report, domain, max_facts
) -> List[str]:
    """The report of an invertibility analysis; *classification*
    describes the mapping's syntax."""
    subset = report.quasi_subset_property
    lines = [
        header_line(title, "invertibility", domain, max_facts),
        f"class: {classification.describe()} "
        f"({classification.n_dependencies} dependencies)",
        f"universe: {len(universe)} instances",
        f"constant propagation: {'yes' if report.constant_propagation else 'no'}",
        f"unique solutions: {'yes' if report.unique_solutions else 'VIOLATED'}",
    ]
    if report.unique_solutions_witness is not None:
        left, right = report.unique_solutions_witness
        lines.append(f"  witness: {facts_text(left)} ~ {facts_text(right)}")
    lines.append(
        f"subset property (~M,~M): {'holds' if subset.holds else 'VIOLATED'} "
        f"(pairs checked: {subset.checked})"
    )
    lines.extend(violation_lines(subset.violations, "|"))
    lines.append(f"verdict: {report.verdict()}")
    lines.append(
        coverage_line(report.coverage, report.instances_checked, report.orbits_checked)
    )
    return lines


# -- plan-directed evaluation -------------------------------------------


def _as_expression(
    expression: Union[str, MappingExpr],
    resolver: Optional[Mapping[str, SchemaMapping]],
) -> MappingExpr:
    if isinstance(expression, MappingExpr):
        return expression
    return parse_expression(expression, resolver)


def _evaluated_mapping(
    normalized: MappingExpr, strategy: str
) -> SchemaMapping:
    """The concrete mapping a sweep-kind strategy runs against."""
    if strategy == "staged":
        staged = staged_mapping(normalized)
        if staged is not None:
            return staged
        # the planner only picks staged when feasible; direct callers
        # of a forced strategy can still land here
        return materialize(normalized)
    return materialize(normalized)


def _actuals_begin() -> Dict[str, float]:
    stats = engine_stats()
    state: Dict[str, float] = {"wall": time.perf_counter()}
    for name in _ACTUAL_COUNTERS:
        state[name] = stats.counter(name)
    for name in _ACTUAL_PHASES:
        phase = stats.phases.get(name)
        state[f"{name}_seconds"] = phase.seconds if phase else 0.0
    return state


def _actuals_end(state: Dict[str, float]) -> Dict[str, float]:
    stats = engine_stats()
    actuals: Dict[str, float] = {
        "measured_seconds": time.perf_counter() - state["wall"]
    }
    for name in _ACTUAL_COUNTERS:
        delta = stats.counter(name) - state[name]
        if delta:
            actuals[name] = delta
    for name in _ACTUAL_PHASES:
        phase = stats.phases.get(name)
        seconds = (phase.seconds if phase else 0.0) - state[f"{name}_seconds"]
        if seconds > 0:
            actuals[f"{name}_seconds"] = seconds
    return actuals


def check_expression(
    expression: Union[str, MappingExpr],
    kind: str,
    *,
    reverse: Optional[Union[str, MappingExpr]] = None,
    domain: Sequence[str] = ("a", "b"),
    max_facts: int = 1,
    plan: Optional[str] = None,
    title: Optional[str] = None,
    resolver: Optional[Mapping[str, SchemaMapping]] = None,
    max_nulls: int = 7,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    checkpoint: Optional[CheckpointJournal] = None,
) -> AlgebraReport:
    """Run one bounded check of a mapping expression.

    *kind* is one of ``unique``, ``subset``, ``invertibility`` (sweep
    kinds over the expression's source universe) or ``inverse``
    (pairwise check that *reverse* composes with *expression* to the
    identity).  *plan* is the plan-mode preference (default: ambient
    ``REPRO_PLAN``); the report is byte-identical for every mode.
    """
    from repro.workloads import power_instances

    expr = _as_expression(expression, resolver)
    shown = title if title is not None else expr.label()
    normalized, trace = normalize(expr)
    universe = list(
        power_instances(expr.source, tuple(domain), max_facts=max_facts)
    )
    pair_checks = len(universe) ** 2 if kind == "inverse" else 0
    reverse_shown = None
    reverse_normalized = None
    planned_expr = normalized
    if kind == "inverse":
        if reverse is None:
            raise MappingError("the inverse kind needs a reverse expression")
        reverse_expr = _as_expression(reverse, resolver)
        reverse_shown = reverse_expr.label()
        reverse_normalized, reverse_trace = normalize(reverse_expr)
        trace = trace + reverse_trace
        # the expensive object is the composition forward ∘ reverse;
        # that is what the planner must choose a strategy for
        planned_expr = Compose(first=normalized, second=reverse_normalized)
    chosen = plan_expression(
        planned_expr,
        kind,
        mode=plan,
        universe_size=len(universe),
        pair_checks=pair_checks,
        normalized_label=planned_expr.label(),
        rewrite_trace=trace,
    )
    options = {
        "workers": workers,
        "symmetry": symmetry,
        "backend": backend,
        "shards": shards,
        "shard_id": shard_id,
    }
    state = _actuals_begin()
    with engine_stats().phase("algebra.sweep"):
        if kind == "unique":
            lines, holds, report = _run_unique(
                shown, normalized, chosen, universe, domain, max_facts,
                budget, options,
            )
        elif kind == "subset":
            lines, holds, report = _run_subset(
                shown, normalized, chosen, universe, domain, max_facts,
                budget, checkpoint, options,
            )
        elif kind == "invertibility":
            lines, holds, report = _run_invertibility(
                shown, normalized, chosen, universe, domain, max_facts,
                budget, checkpoint, options,
            )
        elif kind == "inverse":
            lines, holds, report = _run_inverse(
                shown, normalized, reverse_shown, reverse_normalized,
                planned_expr, chosen, universe, domain, max_facts,
                max_nulls, budget, options,
            )
        else:
            raise MappingError(f"unknown check kind {kind!r}")
    actuals = _actuals_end(state)
    return AlgebraReport(
        kind=kind,
        title=shown,
        holds=holds,
        lines=tuple(lines),
        plan=chosen,
        coverage=report.coverage,
        instances_checked=report.instances_checked,
        orbits_checked=report.orbits_checked,
        actuals=actuals,
    )


def _run_unique(
    shown, normalized, chosen, universe, domain, max_facts, budget, options
):
    from repro.core.framework import unique_solutions_property

    evaluated = _evaluated_mapping(normalized, chosen.strategy)
    verdict = unique_solutions_property(
        evaluated, universe, budget=budget, **options
    )
    return unique_lines(shown, universe, verdict, domain, max_facts), verdict.ok, verdict


def _run_subset(
    shown, normalized, chosen, universe, domain, max_facts, budget,
    checkpoint, options,
):
    from repro.core.framework import SolutionEquivalence, subset_property

    evaluated = _evaluated_mapping(normalized, chosen.strategy)
    equivalence = SolutionEquivalence(evaluated)
    report = subset_property(
        evaluated,
        equivalence,
        equivalence,
        universe,
        stop_at_first_violation=False,
        budget=budget,
        checkpoint=checkpoint,
        **options,
    )
    return subset_lines(shown, universe, report, domain, max_facts), report.holds, report


def _run_invertibility(
    shown, normalized, chosen, universe, domain, max_facts, budget,
    checkpoint, options,
):
    from repro.analysis.classify import classify_mapping
    from repro.analysis.invertibility import invertibility_report

    evaluated = _evaluated_mapping(normalized, chosen.strategy)
    # the report's syntactic fields (LAV/full classification, constant
    # propagation, dependency count) describe the *composed* mapping,
    # so they always read from the materialization — memoized, paid
    # once — while the sweeps run whatever the plan chose
    syntax = materialize(normalized)
    classification = classify_mapping(syntax)
    report = invertibility_report(
        evaluated,
        universe,
        budget=budget,
        checkpoint=checkpoint,
        syntax_mapping=syntax,
        **options,
    )
    lines = invertibility_lines(
        shown, classification, universe, report, domain, max_facts
    )
    return lines, report.unique_solutions and report.quasi_subset_property.holds, report


def _leg_mapping(expr: MappingExpr) -> SchemaMapping:
    """A concrete mapping for one leg of an inverse check —
    materialized when possible, staged otherwise."""
    try:
        return materialize(expr)
    except MappingError:
        staged = staged_mapping(expr)
        if staged is None:
            raise
        return staged


def _run_inverse(
    shown, normalized, reverse_shown, reverse_normalized, composed_expr,
    chosen, universe, domain, max_facts, max_nulls, budget, options,
):
    from repro.core.framework import is_inverse

    # forward/reverse legs are materialized in every strategy (they
    # are cheap — the expensive object is their composition); the
    # strategy only selects how each pair's membership in
    # Inst(forward ∘ reverse) is decided, so orbit planning and the
    # report are identical across strategies
    forward = _leg_mapping(normalized)
    reverse_mapping = _leg_mapping(reverse_normalized)
    if chosen.strategy == "membership":
        test = ExpressionPairTest(expr=composed_expr)
    else:
        test = MaterializedPairTest(composed=materialize(composed_expr))
    with scope(governed=CONTEXT.governed | {"composition_nulls"}):
        report = is_inverse(
            forward,
            reverse_mapping,
            universe,
            max_nulls=max_nulls,
            stop_at_first_mismatch=False,
            budget=budget,
            composition_test=test,
            **options,
        )
    lines = [
        header_line(shown, f"inverse via {reverse_shown}", domain, max_facts),
        f"universe: {len(universe)} instances",
        f"inverse: {'yes' if report.holds else 'VIOLATED'} "
        f"(pairs checked: {report.checked})",
    ]
    for left, right, direction in report.mismatches[:5]:
        lines.append(
            f"  mismatch: {facts_text(left)} vs {facts_text(right)} ({direction})"
        )
    if len(report.mismatches) > 5:
        lines.append(f"  ... and {len(report.mismatches) - 5} more")
    lines.append(
        coverage_line(report.coverage, report.instances_checked, report.orbits_checked)
    )
    return lines, report.holds, report

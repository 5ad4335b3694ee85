"""Plan selection: which evaluation strategy runs a check.

The strategy follows from the expression's shape and the check kind
alone, never from timings or from what the process ran before:

* a sweep kind runs ``staged`` when the normalized expression has a
  compose at its root and :func:`staged_mapping` accepts it, else
  ``materialize`` (for a compose-free expression the two are the same
  mapping);
* the inverse kind decides each pair by ``membership``, which never
  composes with MinGen.

Plan mode ``auto`` (the default) takes that choice; ``materialize``
forces MinGen first (the naive baseline the benchmarks gate against)
and, when the composition cannot be materialized, falls back to the
``auto`` choice with a note (verdicts never depend on the plan, so
falling back is always safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.mapping import MappingError
from repro.engine.context import CONTEXT, PLAN_MODES
from repro.engine.instrumentation import engine_stats
from repro.algebra.evaluate import staged_mapping
from repro.algebra.expr import Compose, MappingExpr, materializable
from repro.algebra.rewrite import RewriteStep

# sweep kinds check whole universes against one mapping; the inverse
# kind checks (left, right) pairs for composition membership
SWEEP_KINDS = ("unique", "subset", "invertibility")
PAIR_KINDS = ("inverse",)


def default_plan_mode() -> str:
    """The engine-wide plan mode (``REPRO_PLAN``, or the CLI's
    ``--plan``; default ``auto``)."""
    return CONTEXT.plan


def resolve_plan_mode(mode: Optional[str]) -> str:
    resolved = mode if mode is not None else default_plan_mode()
    if resolved not in PLAN_MODES:
        raise MappingError(
            f"unknown plan mode {resolved!r}; expected one of {PLAN_MODES}"
        )
    return resolved


@dataclass(frozen=True)
class ExpressionPlan:
    """The chosen evaluation strategy for one check, with the rule
    that chose it."""

    mode: str
    strategy: str
    kind: str
    expression: str
    normalized: str
    reason: str
    rewrite_trace: Tuple[RewriteStep, ...] = ()
    notes: Tuple[str, ...] = ()

    def explain(self, actuals: Optional[Dict[str, float]] = None) -> str:
        lines = [
            f"plan: mode={self.mode} strategy={self.strategy} kind={self.kind}",
            f"  expression: {self.expression}",
        ]
        if self.normalized != self.expression:
            lines.append(f"  normalized: {self.normalized}")
        if self.rewrite_trace:
            lines.append("  rewrites:")
            for step in self.rewrite_trace:
                lines.append(f"    {step}")
        else:
            lines.append("  rewrites: (none applied)")
        lines.append(f"  reason: {self.reason}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if actuals:
            rendered = ", ".join(
                f"{name}={value:.3g}" for name, value in sorted(actuals.items())
            )
            lines.append(f"  actuals: {rendered}")
        return "\n".join(lines)


def _shape_choice(expr: MappingExpr, kind: str) -> Tuple[str, str]:
    """The ``auto`` strategy for *expr* under *kind*, and its rule."""
    if kind in PAIR_KINDS:
        return "membership", "the inverse kind decides each pair by membership"
    if not isinstance(expr, Compose):
        return "materialize", "no compose at the root; materialize is the same mapping"
    if staged_mapping(expr) is None:
        return (
            "materialize",
            "compose at the root, but its stages do not chase exactly (a"
            " stage is not a tgd mapping, or one before the last is not full)",
        )
    return "staged", "compose at the root, and its stages chase exactly"


def plan_expression(
    expr: MappingExpr,
    kind: str,
    *,
    mode: Optional[str] = None,
    normalized_label: Optional[str] = None,
    rewrite_trace: Tuple[RewriteStep, ...] = (),
) -> ExpressionPlan:
    """Pick the evaluation strategy for *expr* under *kind*.

    The chosen strategy bumps an ``algebra_plan_<strategy>`` engine
    counter so ``--engine-stats`` shows what the planner did.
    """
    resolved = resolve_plan_mode(mode)
    if kind not in SWEEP_KINDS + PAIR_KINDS:
        raise MappingError(
            f"unknown check kind {kind!r}; expected one of "
            f"{SWEEP_KINDS + PAIR_KINDS}"
        )
    strategy, reason = _shape_choice(expr, kind)
    notes: Tuple[str, ...] = ()
    if resolved == "materialize" and strategy != "materialize":
        if materializable(expr):
            strategy, reason = "materialize", "plan mode materialize forces MinGen"
        else:
            notes = (
                "preferred strategy 'materialize' infeasible (not"
                " materializable (a compose operand is not a tgd mapping, or"
                f" the first leg is not full)); falling back to {strategy!r}",
            )
    if strategy == "materialize" and not materializable(expr):
        raise MappingError(
            f"no feasible evaluation strategy for {expr.label()!r}"
        )

    engine_stats().bump(f"algebra_plan_{strategy}")
    return ExpressionPlan(
        mode=resolved,
        strategy=strategy,
        kind=kind,
        expression=expr.label(),
        normalized=normalized_label
        if normalized_label is not None
        else expr.label(),
        reason=reason,
        rewrite_trace=tuple(rewrite_trace),
        notes=notes,
    )


# re-exported for tests that construct plans directly
__all__ = [
    "ExpressionPlan",
    "PLAN_MODES",
    "PAIR_KINDS",
    "SWEEP_KINDS",
    "default_plan_mode",
    "plan_expression",
    "resolve_plan_mode",
]

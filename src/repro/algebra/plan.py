"""Plan selection: which evaluation strategy runs a sweep.

A plan mode is a *preference*:

* ``materialize`` — always collapse the expression with MinGen first
  (the naive baseline the benchmarks gate against);
* ``membership`` — avoid materializing: staged pipelines for sweep
  kinds, per-pair membership checks for inverse kinds;
* ``auto`` — let the calibrated cost model pick the cheapest
  feasible strategy.

An infeasible preferred strategy falls back to a feasible one with a
note in the plan (verdicts must never depend on the plan mode, so
falling back is always safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.mapping import MappingError
from repro.engine.context import CONTEXT, PLAN_MODES
from repro.engine.instrumentation import engine_stats
from repro.algebra.cost import CostEstimate, CostModel
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
    """The chosen evaluation strategy for one sweep, with its evidence."""

    mode: str
    strategy: str
    kind: str
    expression: str
    normalized: str
    rewrite_trace: Tuple[RewriteStep, ...] = ()
    estimates: Tuple[CostEstimate, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def chosen(self) -> Optional[CostEstimate]:
        for estimate in self.estimates:
            if estimate.strategy == self.strategy:
                return estimate
        return None

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
        lines.append("  estimates:")
        for estimate in self.estimates:
            marker = "*" if estimate.strategy == self.strategy else " "
            lines.append(f"  {marker} {estimate.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if actuals:
            rendered = ", ".join(
                f"{name}={value:.3g}" for name, value in sorted(actuals.items())
            )
            lines.append(f"  actuals: {rendered}")
        return "\n".join(lines)


def plan_expression(
    expr: MappingExpr,
    kind: str,
    *,
    mode: Optional[str] = None,
    universe_size: int = 0,
    pair_checks: int = 0,
    normalized_label: Optional[str] = None,
    rewrite_trace: Tuple[RewriteStep, ...] = (),
    model: Optional[CostModel] = None,
) -> ExpressionPlan:
    """Pick the evaluation strategy for *expr* under *kind*.

    *universe_size* and *pair_checks* size the cost estimates (pair
    checks are membership tests the sweep will run — zero for sweep
    kinds).  The chosen strategy bumps an ``algebra_plan_<strategy>``
    engine counter so ``--engine-stats`` shows what the planner did.
    """
    resolved = resolve_plan_mode(mode)
    if kind not in SWEEP_KINDS + PAIR_KINDS:
        raise MappingError(
            f"unknown check kind {kind!r}; expected one of "
            f"{SWEEP_KINDS + PAIR_KINDS}"
        )
    model = model if model is not None else CostModel.calibrated()
    staged = staged_mapping(expr)
    notes = []

    if materializable(expr):
        estimate_materialize = model.estimate_materialize(
            expr, universe_size, pair_checks
        )
    else:
        estimate_materialize = CostEstimate(
            strategy="materialize",
            total=float("inf"),
            feasible=False,
            note="not materializable (a compose operand is not a tgd"
            " mapping, or the first leg is not full)",
        )
    if kind in SWEEP_KINDS:
        estimates = (
            estimate_materialize,
            model.estimate_staged(expr, universe_size, pair_checks, staged),
        )
        preferred_by_mode = {"materialize": "materialize", "membership": "staged"}
    else:
        estimates = (
            estimate_materialize,
            model.estimate_membership(expr, pair_checks),
        )
        preferred_by_mode = {
            "materialize": "materialize",
            "membership": "membership",
        }

    feasible = [e for e in estimates if e.feasible]
    if not feasible:
        raise MappingError(
            f"no feasible evaluation strategy for {expr.label()!r}"
        )

    if resolved == "auto":
        strategy = min(feasible, key=lambda e: e.total).strategy
        if not isinstance(expr, Compose) and strategy != "materialize":
            # nothing to avoid materializing without a composition
            strategy = "materialize"
            notes.append("no compose node; materialize is free")
    else:
        preferred = preferred_by_mode[resolved]
        available = {e.strategy for e in feasible}
        if preferred in available:
            strategy = preferred
        else:
            strategy = min(feasible, key=lambda e: e.total).strategy
            reason = next(
                (e.note for e in estimates if e.strategy == preferred), ""
            )
            notes.append(
                f"preferred strategy {preferred!r} infeasible"
                + (f" ({reason})" if reason else "")
                + f"; falling back to {strategy!r}"
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
        rewrite_trace=tuple(rewrite_trace),
        estimates=estimates,
        notes=tuple(notes),
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

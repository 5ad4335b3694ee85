"""Mapping algebra: expression trees over schema mappings.

The algebra lets sweeps describe *composed* mappings symbolically —
``compose(Union, Decomposition)`` — instead of materializing them
eagerly with MinGen.  A rewrite library normalizes expressions, the
planner picks an evaluation strategy from the normalized expression's
shape and the check kind (a staged chase for a sweep over a
composition, membership checks for an inverse check, materialize
otherwise), and the resulting reports are byte-identical to the naive
materialize-first path.
"""

from repro.algebra.expr import (
    Compose,
    MappingAtom,
    MappingExpr,
    ParseError,
    Rename,
    Restrict,
    UnionOf,
    parse_expression,
    producible_relations,
    rename_mapping,
    restrict_mapping,
)
from repro.algebra.rewrite import RewriteStep, normalize
from repro.algebra.evaluate import (
    ExpressionPairTest,
    MaterializedPairTest,
    expression_membership,
    materialize,
    pipeline_stages,
    staged_mapping,
)
from repro.algebra.plan import (
    PLAN_MODES,
    ExpressionPlan,
    default_plan_mode,
    plan_expression,
    resolve_plan_mode,
)
from repro.algebra.sweeps import AlgebraReport, check_expression

__all__ = [
    "AlgebraReport",
    "Compose",
    "ExpressionPairTest",
    "ExpressionPlan",
    "MappingAtom",
    "MappingExpr",
    "MaterializedPairTest",
    "PLAN_MODES",
    "ParseError",
    "Rename",
    "Restrict",
    "RewriteStep",
    "UnionOf",
    "check_expression",
    "default_plan_mode",
    "expression_membership",
    "materialize",
    "normalize",
    "parse_expression",
    "pipeline_stages",
    "plan_expression",
    "producible_relations",
    "rename_mapping",
    "restrict_mapping",
    "resolve_plan_mode",
    "staged_mapping",
]

"""Evaluation strategies for mapping expressions.

Three ways to run an expression, all verdict-equivalent:

* :func:`materialize` — collapse the tree to one concrete
  :class:`~repro.core.mapping.SchemaMapping`, paying MinGen for each
  ``compose`` node.  Exact but exponential in composition width.
* :func:`staged_mapping` — keep the compose spine as a
  :class:`~repro.core.mapping.StagedMapping` pipeline whose universal
  solution chases stage by stage.  Exact for tgd stages with every
  stage but the last full (intermediates are ground, so the staged
  chase is a universal solution of the composition — homomorphically
  equivalent to the materialized chase, hence verdict-identical).
  No MinGen anywhere.
* :func:`expression_membership` — decide one (left, right) pair
  without constructing any composed mapping, via
  [FKPT05]-style candidate intermediates.  What inverse-kind checks
  use in membership mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.datamodel.instances import Instance
from repro.core.composition import _candidate_intermediates, compose_full
from repro.core.generators import MinGenConfig
from repro.core.mapping import (
    MappingError,
    SchemaMapping,
    StagedMapping,
    is_solution,
)
from repro.engine.cache import derived_cache
from repro.engine.instrumentation import engine_stats
from repro.algebra.expr import (
    Compose,
    MappingAtom,
    MappingExpr,
    Rename,
    Restrict,
    UnionOf,
    rename_mapping,
    restrict_mapping,
)

def materialize(
    expr: MappingExpr, *, mingen_config: Optional[MinGenConfig] = None
) -> SchemaMapping:
    """Collapse *expr* into one concrete mapping.

    ``compose`` nodes run MinGen (:func:`compose_full`); ``union``
    nodes concatenate constraint sets; ``restrict``/``rename`` apply
    relation surgery.  Results are memoized in the engine's
    derived-mapping memo (:data:`~repro.engine.cache.derived_cache`),
    so repeated sweeps over the same expression pay MinGen once.  The
    key is exact, as :func:`~repro.engine.cache.derived_mapping`'s is:
    the expression itself (whose ``==`` compares each leaf mapping's
    schemas and dependencies), every leaf's name and the MinGen
    options.  :meth:`MappingExpr.key` would not do: its leaves are
    :func:`~repro.engine.cache.mapping_key` digests, which omit the
    source schema and the name the result inherits.  A leaf is its own
    mapping, unmemoized: a job's one-atom expression runs on that
    job's mapping, and a daemon keeps no entry per inline mapping.
    """
    if isinstance(expr, MappingAtom):
        return expr.mapping
    key = ("materialize", expr, _leaf_names(expr), mingen_config)
    hit, result = derived_cache.get(key)
    if hit:
        return result
    with engine_stats().phase("algebra.materialize"):
        result = _materialize(expr, mingen_config)
    derived_cache.put(key, result)
    return result


def _leaf_names(expr: MappingExpr) -> Tuple[str, ...]:
    if isinstance(expr, MappingAtom):
        return (expr.mapping.name,)
    return tuple(
        name for child in expr.children() for name in _leaf_names(child)
    )


def _materialize(
    expr: MappingExpr, mingen_config: Optional[MinGenConfig]
) -> SchemaMapping:
    if isinstance(expr, Compose):
        first = materialize(expr.first, mingen_config=mingen_config)
        second = materialize(expr.second, mingen_config=mingen_config)
        return compose_full(first, second, mingen_config=mingen_config)
    if isinstance(expr, UnionOf):
        left = materialize(expr.left, mingen_config=mingen_config)
        right = materialize(expr.right, mingen_config=mingen_config)
        name = ""
        if left.name and right.name:
            name = f"{left.name}∪{right.name}"
        return SchemaMapping(
            source=left.source,
            target=left.target,
            dependencies=tuple(left.dependencies) + tuple(right.dependencies),
            name=name,
        )
    if isinstance(expr, Restrict):
        child = materialize(expr.child, mingen_config=mingen_config)
        return restrict_mapping(child, expr.relations)
    if isinstance(expr, Rename):
        child = materialize(expr.child, mingen_config=mingen_config)
        return rename_mapping(child, dict(expr.renaming))
    raise MappingError(f"cannot materialize {type(expr).__name__}")


# -- staged evaluation --------------------------------------------------


def pipeline_stages(expr: MappingExpr) -> Optional[List[SchemaMapping]]:
    """Flatten *expr*'s compose spine into materialized segments.

    Walks the right-nested spine ``compose(a, compose(b, c))`` into
    ``[a, b, c]``, materializing each segment (segments themselves
    contain no ``compose``, so no MinGen runs unless a rewrite left
    one inside — then that segment still materializes).  Returns
    ``None`` when some segment cannot be materialized.
    """
    segments: List[SchemaMapping] = []
    current = expr
    while isinstance(current, Compose):
        try:
            segments.append(materialize(current.first))
        except MappingError:
            return None
        current = current.second
    try:
        segments.append(materialize(current))
    except MappingError:
        return None
    return segments


def staged_mapping(expr: MappingExpr) -> Optional[SchemaMapping]:
    """Build the staged evaluation pipeline for *expr*.

    A single-segment spine is returned as the plain materialized
    mapping.  Longer spines become a :class:`StagedMapping`, whose
    constructor enforces the exactness conditions (tgd stages,
    all-but-last full); when they fail — or a segment refuses to
    materialize — the strategy is infeasible and ``None`` is
    returned.
    """
    segments = pipeline_stages(expr)
    if segments is None:
        return None
    if len(segments) == 1:
        return segments[0]
    names = [stage.name or "?" for stage in segments]
    try:
        return StagedMapping(
            source=segments[0].source,
            target=segments[-1].target,
            dependencies=(),
            stages=tuple(segments),
            name="∘".join(names),
        )
    except MappingError:
        return None


# -- membership evaluation ----------------------------------------------


def _tgd_evaluable(expr: MappingExpr) -> SchemaMapping:
    """A tgd mapping denoting *expr*, for chase-based candidate
    enumeration — staged when possible, else materialized."""
    staged = staged_mapping(expr)
    if staged is not None and staged.is_tgd_mapping():
        return staged
    concrete = materialize(expr)
    if not concrete.is_tgd_mapping():
        raise MappingError(
            "membership evaluation needs a tgd prefix to chase"
        )
    return concrete


def expression_membership(
    expr: MappingExpr,
    left: Instance,
    right: Instance,
    *,
    max_nulls: int = 7,
) -> bool:
    """Decide (left, right) ∈ Inst(expr) without materializing the
    whole expression.

    ``compose`` nodes enumerate candidate intermediates of the first
    leg and recurse on the second; ``union`` nodes are conjunctions
    of their operands' memberships (Inst of a union of constraint
    sets is the intersection); everything else falls back to a model
    check against the materialized mapping.
    """
    if isinstance(expr, Compose):
        first = _tgd_evaluable(expr.first)
        stats = engine_stats()
        with stats.phase("compose.membership"):
            for candidate in _candidate_intermediates(
                first, left, right, max_nulls
            ):
                stats.bump("membership_candidates_tried")
                if expression_membership(
                    expr.second, candidate, right, max_nulls=max_nulls
                ):
                    return True
        return False
    if isinstance(expr, UnionOf):
        return expression_membership(
            expr.left, left, right, max_nulls=max_nulls
        ) and expression_membership(
            expr.right, left, right, max_nulls=max_nulls
        )
    if isinstance(expr, MappingAtom):
        return is_solution(expr.mapping, left, right)
    return is_solution(materialize(expr), left, right)


# -- composition tests for inverse-kind sweeps --------------------------


@dataclass(frozen=True)
class MaterializedPairTest:
    """Composition test using one materialized composed mapping.

    Checks (left, right) against ``Inst(mapping ∘ candidate)`` the
    paper's way: membership through the concrete composition the
    caller materialized up front.  Picklable, so parallel inverse
    sweeps ship it to workers.
    """

    composed: SchemaMapping

    def __call__(
        self,
        mapping: SchemaMapping,
        candidate: SchemaMapping,
        left: Instance,
        right: Instance,
        max_nulls: int,
    ) -> bool:
        return is_solution(self.composed, left, right)


@dataclass(frozen=True)
class ExpressionPairTest:
    """Composition test that runs :func:`expression_membership`.

    No composed mapping is ever constructed; each pair pays candidate
    enumeration instead of the sweep paying MinGen once.  Picklable
    for parallel sweeps.
    """

    expr: MappingExpr

    def __call__(
        self,
        mapping: SchemaMapping,
        candidate: SchemaMapping,
        left: Instance,
        right: Instance,
        max_nulls: int,
    ) -> bool:
        return expression_membership(
            self.expr, left, right, max_nulls=max_nulls
        )

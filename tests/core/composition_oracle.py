"""The plain-product candidate search, kept as a test oracle.

``repro.core.composition`` tries one candidate intermediate J per
isomorphism class.  The oracle here tries every image of chase(I1)
under maps sending each of its k nulls to a null of the chase, an
active-domain constant of I1 ∪ I2, or one of k fresh constants: all
(2k + a)^k of them, in ``itertools.product`` order.  It is slow but
plainly complete, so the differential tests compare verdicts, budget
errors and candidate sequences against it; ``product_enumeration``
swaps it in under both membership procedures.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product
from typing import Dict, Iterator, List
from unittest import mock

import repro.algebra.evaluate as evaluate
import repro.core.composition as composition
from repro.core.mapping import SchemaMapping, universal_solution
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.errors import CompositionBudgetError


def product_candidates(
    mapping: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int,
) -> Iterator[Instance]:
    """Every image of chase(left) over nulls + adom + fresh targets."""
    chased = universal_solution(mapping, left)
    chase_nulls = sorted(chased.nulls())
    if len(chase_nulls) > max_nulls:
        raise CompositionBudgetError(
            f"chase has {len(chase_nulls)} nulls (> max_nulls={max_nulls})",
            kind="composition_nulls",
            limit=max_nulls,
            consumed=len(chase_nulls),
        )
    adom_constants = sorted(
        set(left.constants()) | set(right.constants())
    )
    fresh_constants = []
    taken = {c.value for c in adom_constants if isinstance(c.value, str)}
    counter = 0
    while len(fresh_constants) < len(chase_nulls):
        candidate = f"fresh_{counter}"
        counter += 1
        if candidate not in taken:
            fresh_constants.append(Constant(candidate))
    targets: List[Term] = list(chase_nulls) + adom_constants + fresh_constants
    if not chase_nulls:
        yield chased
        return
    for images in product(targets, repeat=len(chase_nulls)):
        mapping_dict: Dict[Term, Term] = dict(zip(chase_nulls, images))
        yield chased.substitute(mapping_dict)


@contextmanager
def product_enumeration() -> Iterator[None]:
    """Run ``composition_membership`` and ``expression_membership`` over
    :func:`product_candidates` instead of the restricted-growth search."""
    with mock.patch.object(
        composition, "_candidate_intermediates", product_candidates
    ), mock.patch.object(
        evaluate, "_candidate_intermediates", product_candidates
    ):
        yield

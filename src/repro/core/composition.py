"""Composition of schema mappings (Section 2) and an exact
composition-membership decision procedure.

``composition_membership(M, M', I1, I2)`` decides whether
(I1, I2) ∈ Inst(M ∘ M'), i.e. whether some intermediate target
instance J satisfies (I1, J) ⊨ Sigma and (J, I2) ⊨ Sigma'.  Although
J ranges over an infinite set, a finite candidate set suffices:

* (I1, J) ⊨ Sigma exactly when J contains a homomorphic image of
  chase(I1); and premise satisfaction of Sigma' is monotone in J
  (every premise match in a subinstance is a match in the
  superinstance, and a dependency's conclusion constrains I2 only).
  Hence if any J works, the homomorphic image h(chase(I1)) ⊆ J works
  as well.
* It therefore suffices to try the images of chase(I1) under maps
  sending each of its k nulls to a null of the chase, to an
  active-domain constant of I1 or I2, or to one of k fresh constants
  — and only one such image per isomorphism class.  Each null, taken
  in sorted order, goes to an active-domain constant, to a null block
  already opened or one new block, or to a fresh constant already used
  or one new fresh constant.  The first block to open is labelled with
  the chase's first null, the second with its second, and so on; fresh
  constants are taken from the k in the same way.  This
  restricted-growth enumeration yields
  sum over i + j + l = k of multinomial(k; i, j, l) * B_i * B_j * a^l
  candidates (B the Bell numbers, a the number of active-domain
  constants) instead of the (2k + a)^k images of the plain product.

Why one image per class is enough:

* ``is_solution(M', J, I2)`` does not change under a bijective
  renaming of J's nulls among nulls, or of J's constants outside
  adom(I1 ∪ I2) among themselves: dependencies contain no constant
  symbols, ``Constant()`` only tells a null from a constant, and
  inequalities only see equality.
* Every product image is isomorphic to exactly one restricted-growth
  image under such a renaming.  That image is the first member of its
  class in the product's order (nulls, then active-domain constants,
  then fresh constants), so the search is the product with the
  repeats left out: it stops on the same class, with the same verdict
  or budget error.
* For ``compose`` nested in an algebra expression,
  ``expression_membership`` recurses on the second leg with each
  candidate.  The verdict at every level is invariant under the same
  renamings, so the argument applies level by level, by induction.

This makes the membership test a decision procedure (no approximation),
at a cost exponential in the number of nulls of chase(I1); the
``max_nulls`` guard protects against misuse on large instances.

The module also implements ``compose_full``: the classical composition
algorithm for the case where the first mapping is full (cf. the
composition literature the paper builds on, [5] in its references),
obtained by resolving each premise of the second mapping against the
first mapping's conclusions — a direct reuse of MinGen.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.dependencies.dependency import Dependency, Premise
from repro.core.generators import MinGenConfig, minimal_generators
from repro.core.mapping import (
    MappingError,
    SchemaMapping,
    is_solution,
    universal_solution,
)
from repro.engine.instrumentation import engine_stats
from repro.errors import CompositionBudgetError


def _candidate_intermediates(
    mapping: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int,
) -> Iterator[Instance]:
    """One candidate intermediate J per isomorphism class (module doc).

    A restricted-growth search assigns the chase's nulls in sorted
    order.  Each null joins a null block already opened, opens the next
    block, becomes an active-domain constant of *left* ∪ *right*,
    reuses a fresh constant, or takes the next unused one.  Choices are
    tried in that order, so each candidate is the first of its class in
    the (2k + a)^k product over nulls + adom + fresh, and the
    candidates keep the product's order.  The ``max_nulls`` guard runs
    before any candidate is built.
    """
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
    if not chase_nulls:
        yield chased
        return

    def images(
        prefix: Tuple[Term, ...], blocks: int, fresh: int
    ) -> Iterator[Tuple[Term, ...]]:
        if len(prefix) == len(chase_nulls):
            yield prefix
            return
        choices = [(null, blocks, fresh) for null in chase_nulls[:blocks]]
        choices.append((chase_nulls[blocks], blocks + 1, fresh))
        choices.extend((c, blocks, fresh) for c in adom_constants)
        choices.extend((c, blocks, fresh) for c in fresh_constants[:fresh])
        choices.append((fresh_constants[fresh], blocks, fresh + 1))
        for image, next_blocks, next_fresh in choices:
            yield from images(prefix + (image,), next_blocks, next_fresh)

    for image in images((), 0, 0):
        yield chased.substitute(dict(zip(chase_nulls, image)))


def composition_membership(
    first: SchemaMapping,
    second: SchemaMapping,
    left: Instance,
    right: Instance,
    *,
    max_nulls: int = 7,
) -> bool:
    """Decide (left, right) ∈ Inst(first ∘ second).

    *first* must be a tgd mapping (so the chase characterizes its
    solutions); *second* may use the full dependency language
    (disjunctions, Constant(), inequalities).
    """
    stats = engine_stats()
    with stats.phase("compose.membership"):
        for candidate in _candidate_intermediates(first, left, right, max_nulls):
            stats.bump("membership_candidates_tried")
            if is_solution(second, candidate, right):
                return True
    return False


def compose_full(
    first: SchemaMapping,
    second: SchemaMapping,
    *,
    mingen_config: Optional[MinGenConfig] = None,
    name: str = "",
) -> SchemaMapping:
    """Compose two mappings when the first is specified by *full* tgds.

    For each tgd of *second* with premise phi2(x, u) over the middle
    schema, every minimal generator beta(x', z) of ``exists u phi2``
    with respect to *first* (where x' are the variables shared with
    the conclusion) yields a composed tgd beta -> conclusion.  The
    result specifies first ∘ second.
    """
    if not first.is_tgd_mapping() or not first.is_full():
        raise MappingError("compose_full requires a full tgd first mapping")
    if not second.is_tgd_mapping():
        raise MappingError("compose_full requires a tgd second mapping")
    if first.target.relations != second.source.relations:
        raise MappingError(
            "middle schemas differ: "
            f"{first.target} vs {second.source}"
        )

    stats = engine_stats()
    composed: List[Dependency] = []
    seen = set()
    with stats.phase("compose.full"):
        for sigma in second.dependencies:
            frontier = sigma.frontier()
            goal = sigma.premise.atoms
            for generator in minimal_generators(
                first, goal, frontier, config=mingen_config
            ):
                candidate = Dependency(
                    Premise(generator.atoms), (sigma.disjuncts[0],)
                )
                key = candidate.canonical_form()
                if key not in seen:
                    seen.add(key)
                    composed.append(candidate)
                    stats.bump("compose_rules_emitted")
    return SchemaMapping(
        first.source,
        second.target,
        tuple(composed),
        name=name
        or (
            f"{first.name}∘{second.name}"
            if first.name and second.name
            else ""
        ),
    )

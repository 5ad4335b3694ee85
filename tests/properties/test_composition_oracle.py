"""Composition membership agrees with the plain-product oracle (hypothesis).

``composition_membership`` tries one candidate intermediate per
isomorphism class; ``tests/core/composition_oracle.py`` tries all
(2k + a)^k images of the chase.  These properties draw pairs of
instances with at most two facts each and assert the same verdict, or
the same ``CompositionBudgetError``, from both, for second mappings of
three kinds:

* ``quasi_inverse`` of random LAV mappings, which brings in
  ``Constant()``, disjunctions and existentials;
* ``inverse`` of Thm 4.8, Thm 4.9 and Example 5.4, which brings in
  ``x1 != x2``;
* a hand-written mapping whose premises compare two existential
  positions of the first mapping, with ``!=``, with a shared variable
  and under ``Constant()``.

``expression_membership`` on a two-``compose`` expression is checked
the same way, its recursion run over the oracle's candidates, on every
pair of a small universe.
"""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import expression_membership
from repro.algebra.expr import Compose, MappingAtom
from repro.catalog import example_5_4, thm_4_8, thm_4_8_inverse, thm_4_9
from repro.core.composition import CompositionBudgetError, composition_membership
from repro.core.inverse import inverse
from repro.core.mapping import SchemaMapping
from repro.core.quasi_inverse import quasi_inverse
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.engine.instrumentation import engine_stats
from repro.workloads import (
    instance_universe,
    random_ground_instance,
    random_lav_mapping,
)
from tests.core.composition_oracle import product_enumeration

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

lav_mappings = st.builds(
    random_lav_mapping,
    st.integers(min_value=0, max_value=10_000),
    n_source=st.integers(min_value=1, max_value=2),
    n_target=st.integers(min_value=1, max_value=2),
    max_arity=st.just(2),
    n_tgds=st.integers(min_value=1, max_value=3),
)

CATALOG = {"Thm4.8": thm_4_8, "Thm4.9": thm_4_9, "Example5.4": example_5_4}

#: P(x, y) -> Q(x, z) & R(y, w), and a reverse whose premises compare
#: the nulls z and w with != and a shared variable.  Keeping z and w
#: apart (as constants of I2), merging them as nulls, and merging them
#: into one constant each ask I2 for different facts.
EXISTENTIAL_FIRST = SchemaMapping.from_text(
    Schema.of({"P": 2}),
    Schema.of({"Q": 2, "R": 2}),
    "P(x, y) -> Q(x, z) & R(y, w)",
)
EXISTENTIAL_INEQUALITY = SchemaMapping.from_text(
    Schema.of({"Q": 2, "R": 2}),
    Schema.of({"P": 2}),
    """
    Q(x, u) & R(y, v) & u != v -> P(u, v)
    Q(x, u) & R(y, u) -> P(y, y)
    Q(x, u) & R(y, u) & Constant(u) -> P(y, x)
    """,
)


@lru_cache(maxsize=None)
def _catalog_inverse(name: str):
    mapping = CATALOG[name]()
    return mapping, inverse(mapping)


@lru_cache(maxsize=None)
def _universe(schema: Schema, domain: tuple):
    return instance_universe(schema, list(domain), max_facts=2)


def _outcome(decide, *args, **kwargs):
    """The verdict, or the budget error's identity if one is raised."""
    try:
        return decide(*args, **kwargs)
    except CompositionBudgetError as error:
        return ("budget", error.kind, error.limit, error.consumed, str(error))


def _agree(decide, *args, **kwargs):
    """*decide*'s outcome, asserted equal to its outcome over the product."""
    with product_enumeration():
        expected = _outcome(decide, *args, **kwargs)
    actual = _outcome(decide, *args, **kwargs)
    assert actual == expected, args
    return actual


def test_product_enumeration_swaps_in_the_oracle():
    # k = 2 nulls and a = 4 constants: the product's (2k + a)^k = 64
    # candidates, under both membership procedures.
    left, right = Instance.build({"P": [("a", "b"), ("c", "d")]}), Instance.empty()
    expr = Compose(
        first=MappingAtom(mapping=thm_4_8()),
        second=MappingAtom(mapping=thm_4_8_inverse()),
    )
    for decide, args in (
        (composition_membership, (thm_4_8(), thm_4_8_inverse())),
        (expression_membership, (expr,)),
    ):
        before = engine_stats().counter("membership_candidates_tried")
        with product_enumeration():
            assert not decide(*args, left, right)
        tried = engine_stats().counter("membership_candidates_tried") - before
        assert tried == 64


@SLOW
@given(
    mapping=lav_mappings,
    left_seed=st.integers(min_value=0, max_value=1000),
    right_seed=st.integers(min_value=0, max_value=1000),
    left_facts=st.integers(min_value=0, max_value=2),
    right_facts=st.integers(min_value=0, max_value=2),
    same=st.booleans(),
)
def test_quasi_inverses_of_lav_mappings(
    mapping, left_seed, right_seed, left_facts, right_facts, same
):
    reverse = quasi_inverse(mapping)
    left = random_ground_instance(
        mapping.source, seed=left_seed, n_facts=left_facts, domain_size=2
    )
    right = left if same else random_ground_instance(
        mapping.source, seed=right_seed, n_facts=right_facts, domain_size=2
    )
    _agree(composition_membership, mapping, reverse, left, right, max_nulls=3)


@SLOW
@given(data=st.data(), name=st.sampled_from(sorted(CATALOG)))
def test_inverses_of_the_catalog(data, name):
    mapping, reverse = _catalog_inverse(name)
    universe = _universe(mapping.source, ("a", "b"))
    left = data.draw(st.sampled_from(universe), label="left")
    right = data.draw(st.sampled_from(universe), label="right")
    _agree(composition_membership, mapping, reverse, left, right, max_nulls=7)


@settings(SLOW, max_examples=25)
@given(data=st.data(), max_nulls=st.sampled_from([3, 7]))
def test_inequality_between_existential_positions(data, max_nulls):
    universe = _universe(EXISTENTIAL_FIRST.source, ("a", "b"))
    left = data.draw(st.sampled_from(universe), label="left")
    right = data.draw(st.sampled_from(universe), label="right")
    _agree(
        composition_membership,
        EXISTENTIAL_FIRST,
        EXISTENTIAL_INEQUALITY,
        left,
        right,
        max_nulls=max_nulls,
    )


#: compose(P -> Q, compose(Q -> S, S -> P)): both legs invent nulls, the
#: first leg's nulls reach the last one, and the last one tells nulls
#: from constants and compares them.
NESTED = Compose(
    first=MappingAtom(
        mapping=SchemaMapping.from_text(
            Schema.of({"P": 1}), Schema.of({"Q": 2}), "P(x) -> Q(x, z)"
        )
    ),
    second=Compose(
        first=MappingAtom(
            mapping=SchemaMapping.from_text(
                Schema.of({"Q": 2}), Schema.of({"S": 2}), "Q(x, y) -> S(y, w)"
            )
        ),
        second=MappingAtom(
            mapping=SchemaMapping.from_text(
                Schema.of({"S": 2}),
                Schema.of({"P": 1}),
                """
                S(y, w) & Constant(y) -> P(y)
                S(y, w) & y != w -> P(w)
                S(y, y) -> P(y)
                """,
            )
        ),
    ),
)


def test_nested_compose_expression():
    # max_nulls=3 trips on the inner leg whenever the first leg's two
    # nulls stay apart, so budget errors must match too, class by class.
    universe = _universe(Schema.of({"P": 1}), ("a", "b", "c"))
    outcomes = set()
    for left in universe:
        for right in universe:
            outcome = _agree(
                expression_membership, NESTED, left, right, max_nulls=3
            )
            outcomes.add(outcome if isinstance(outcome, bool) else "budget")
    assert outcomes == {True, False, "budget"}

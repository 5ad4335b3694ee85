"""Unit tests for composition membership and full-tgd composition."""

from itertools import permutations
from math import factorial

import pytest

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    projection,
    thm_4_8,
    thm_4_8_inverse,
    thm_4_9,
    union_mapping,
)
from repro.core.composition import (
    CompositionBudgetError,
    _candidate_intermediates,
    compose_full,
    composition_membership,
)
from repro.core.mapping import MappingError, SchemaMapping, is_solution, universal_solution
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null
from repro.engine.instrumentation import engine_stats
from repro.workloads import instance_universe
from tests.core.composition_oracle import product_candidates


class TestMembership:
    def test_identity_like_pair_accepted(self):
        mapping = decomposition()
        reverse = decomposition_quasi_inverse_join()
        source = Instance.build({"P": [("a", "b", "c")]})
        assert composition_membership(mapping, reverse, source, source)

    def test_superset_pairs_accepted(self):
        mapping = decomposition()
        reverse = decomposition_quasi_inverse_join()
        source = Instance.build({"P": [("a", "b", "c")]})
        bigger = source.union(Instance.build({"P": [("d", "e", "f")]}))
        assert composition_membership(mapping, reverse, source, bigger)

    def test_unreachable_pair_rejected(self):
        mapping = decomposition()
        reverse = decomposition_quasi_inverse_join()
        source = Instance.build({"P": [("a", "b", "c")]})
        other = Instance.build({"P": [("x", "y", "z")]})
        assert not composition_membership(mapping, reverse, source, other)

    def test_null_images_matter(self):
        # Projection with its quasi-inverse: the chase null must be
        # mappable to a constant for the reverse tgd to produce a
        # ground witness; membership explores those images.
        mapping = projection()
        reverse = SchemaMapping.from_text(
            mapping.target,
            mapping.source,
            "Q(x) & Constant(x) -> P(x, y)",
        )
        source = Instance.build({"P": [("a", "b")]})
        recovered = Instance.build({"P": [("a", "c")]})
        assert composition_membership(mapping, reverse, source, recovered)

    def test_budget_guard(self):
        mapping = thm_4_8()  # each P-fact chases to a fresh null
        source = Instance.build(
            {"P": [(str(i), str(i + 1)) for i in range(10)]}
        )
        with pytest.raises(CompositionBudgetError):
            composition_membership(
                mapping, thm_4_8_inverse(), source, source, max_nulls=2
            )

    def test_empty_left_composes_with_everything_under_vacuous_reverse(self):
        mapping = union_mapping()
        reverse = SchemaMapping.from_text(
            mapping.target, mapping.source, "S(x) -> P(x)"
        )
        empty = Instance.empty()
        assert composition_membership(mapping, reverse, empty, empty)


def _p_facts(n: int) -> Instance:
    """n Thm 4.8 source facts over 2n distinct constants (k = n nulls)."""
    return Instance.build({"P": [(f"a{i}", f"b{i}") for i in range(n)]})


def _bell(n: int) -> int:
    """The n-th Bell number, read off the Bell triangle."""
    row = [1]
    for _ in range(n):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
    return row[0]


def _restricted_growth_count(k: int, a: int) -> int:
    """Sum of multinomial(k; i, j, l) * B_i * B_j * a^l over i + j + l = k:
    i nulls split into null blocks, j into fresh constants, l onto the
    a active-domain constants."""
    return sum(
        factorial(k) // (factorial(i) * factorial(j) * factorial(k - i - j))
        * _bell(i) * _bell(j) * a ** (k - i - j)
        for i in range(k + 1)
        for j in range(k + 1 - i)
    )


def _isomorphism_class(instance: Instance, fixed) -> frozenset:
    """Every relabelling of *instance*'s nulls and its constants outside
    *fixed* onto placeholders; equal exactly for isomorphic instances."""
    nulls = sorted(instance.nulls())
    free = sorted(set(instance.constants()) - set(fixed))
    return frozenset(
        instance.substitute(
            {
                **{n: Null(f"#{i}") for i, n in enumerate(null_order)},
                **{c: Constant(f"#{i}") for i, c in enumerate(constant_order)},
            }
        )
        for null_order in permutations(nulls)
        for constant_order in permutations(free)
    )


class TestCandidateEnumeration:
    """The restricted-growth search against the product it replaces."""

    @pytest.mark.parametrize(
        "n, expected", [(1, 4), (2, 38), (3, 562), (4, 11_294)]
    )
    def test_rejected_pair_tries_one_candidate_per_class(self, n, expected):
        # k = n nulls, a = 2n constants; the product would try
        # (2k + a)^k = 4, 64, 1,728 and 65,536 candidates.
        assert _restricted_growth_count(n, 2 * n) == expected
        left, right = _p_facts(n), Instance.empty()
        yielded = _candidate_intermediates(thm_4_8(), left, right, 7)
        assert sum(1 for _ in yielded) == expected
        before = engine_stats().counter("membership_candidates_tried")
        assert not composition_membership(
            thm_4_8(), thm_4_8_inverse(), left, right
        )
        tried = engine_stats().counter("membership_candidates_tried") - before
        assert tried == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_candidates_are_the_products_first_of_each_class(self, n):
        left, right = _p_facts(n), Instance.empty()
        fixed = left.constants() | right.constants()
        yielded = list(_candidate_intermediates(thm_4_8(), left, right, 7))
        classes = [_isomorphism_class(c, fixed) for c in yielded]
        assert len(set(classes)) == len(yielded)  # no two isomorphic
        firsts = {}
        for candidate in product_candidates(thm_4_8(), left, right, 7):
            firsts.setdefault(_isomorphism_class(candidate, fixed), candidate)
        # every product candidate is isomorphic to a yielded one, and
        # each yielded one is the first of its class in product order
        assert set(firsts) == set(classes)
        assert yielded == list(firsts.values())

    def test_budget_error_comes_before_any_candidate(self):
        candidates = _candidate_intermediates(
            thm_4_8(), _p_facts(3), Instance.empty(), 2
        )
        with pytest.raises(CompositionBudgetError) as raised:
            next(candidates)
        error = raised.value
        assert (error.kind, error.limit, error.consumed) == (
            "composition_nulls", 2, 3
        )


class TestComposeFull:
    def test_requires_full_first_mapping(self):
        non_full = projection()  # full, so build a non-full one
        existential = SchemaMapping.from_text(
            Schema.of({"A": 1}), Schema.of({"B": 2}), "A(x) -> B(x, y)"
        )
        second = SchemaMapping.from_text(
            Schema.of({"B": 2}), Schema.of({"C": 1}), "B(x, y) -> C(x)"
        )
        with pytest.raises(MappingError):
            compose_full(existential, second)
        assert non_full.is_full()

    def test_requires_matching_middle_schema(self):
        first = projection()
        second = SchemaMapping.from_text(
            Schema.of({"X": 1}), Schema.of({"Y": 1}), "X(x) -> Y(x)"
        )
        with pytest.raises(MappingError):
            compose_full(first, second)

    def test_projection_then_copy(self):
        first = projection()  # P(x, y) -> Q(x)
        second = SchemaMapping.from_text(
            Schema.of({"Q": 1}), Schema.of({"T": 1}), "Q(x) -> T(x)"
        )
        composed = compose_full(first, second)
        source = Instance.build({"P": [("a", "b")]})
        assert universal_solution(composed, source) == Instance.build(
            {"T": [("a",)]}
        )

    def test_decomposition_then_join(self):
        first = decomposition()
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"W": 3}),
            "Q(x, y) & R(y, z) -> W(x, y, z)",
        )
        composed = compose_full(first, second)
        source = Instance.build({"P": [("a", "b", "c"), ("d", "b", "e")]})
        result = universal_solution(composed, source)
        # The composed mapping reproduces the join of the chase:
        # the cross product over the shared middle column.
        expected = universal_solution(
            second, universal_solution(first, source)
        )
        assert result == expected

    def test_agrees_with_membership_semantics(self):
        first = thm_4_9()
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"Out": 1}),
            "P2(x, x) -> Out(x)\nQ(x) -> Out(x)",
        )
        composed = compose_full(first, second)
        universe_left = instance_universe(first.source, ["a"], max_facts=2)
        universe_right = instance_universe(second.target, ["a"], max_facts=1)
        for left in universe_left:
            for right in universe_right:
                direct = is_solution(composed, left, right)
                via_membership = composition_membership(first, second, left, right)
                assert direct == via_membership

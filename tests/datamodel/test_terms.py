"""Unit tests for terms: the three disjoint kinds and their order."""

from repro.datamodel.terms import (
    Constant,
    Null,
    Variable,
    constants,
    is_constant,
    nulls,
    variables,
)


class TestKinds:
    def test_constant_equality_is_by_value(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_int_and_str_constants_are_distinct(self):
        assert Constant(1) != Constant("1")

    def test_null_equality_is_by_label(self):
        assert Null("n1") == Null("n1")
        assert Null("n1") != Null("n2")

    def test_kinds_are_disjoint(self):
        assert Constant("x") != Variable("x")
        assert Constant("x") != Null("x")
        assert Null("x") != Variable("x")

    def test_terms_are_hashable(self):
        pool = {Constant("a"), Null("a"), Variable("a")}
        assert len(pool) == 3

    def test_is_constant(self):
        assert is_constant(Constant("a"))
        assert not is_constant(Null("a"))
        assert not is_constant(Variable("a"))


class TestOrdering:
    def test_constants_sort_before_nulls_before_variables(self):
        ordered = sorted([Variable("a"), Null("a"), Constant("a")])
        assert [type(t) for t in ordered] == [Constant, Null, Variable]

    def test_integer_constants_sort_numerically(self):
        assert Constant(2) < Constant(10)

    def test_integers_sort_before_strings(self):
        assert Constant(999) < Constant("a")

    def test_sort_is_deterministic_and_total(self):
        pool = [Constant("b"), Constant("a"), Null("z"), Variable("m"), Constant(3)]
        assert sorted(pool) == sorted(reversed(pool))


class TestFilters:
    def test_filters_partition_by_kind(self):
        pool = [Constant("a"), Null("n"), Variable("v"), Constant(2)]
        assert list(constants(pool)) == [Constant("a"), Constant(2)]
        assert list(nulls(pool)) == [Null("n")]
        assert list(variables(pool)) == [Variable("v")]

    def test_filters_preserve_order(self):
        pool = [Constant("b"), Constant("a")]
        assert list(constants(pool)) == pool


class TestRendering:
    def test_null_rendering_is_marked(self):
        assert str(Null("n1")) == "⊥n1"

    def test_constant_and_variable_render_plainly(self):
        assert str(Constant("a")) == "a"
        assert str(Variable("x")) == "x"

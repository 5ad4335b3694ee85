"""Unit tests for possible-worlds query answering."""

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    union_mapping,
    union_quasi_inverse,
)
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant
from repro.dataexchange.queries import parse_query
from repro.dataexchange.worlds import (
    certain_answers_over_worlds,
    possible_answers_over_worlds,
    recovered_certain_answers,
    recovered_possible_answers,
)


class TestWorldSemantics:
    def test_certain_is_intersection(self):
        worlds = [
            Instance.build({"P": [("a",), ("b",)]}),
            Instance.build({"P": [("a",), ("c",)]}),
        ]
        query = parse_query("q(x) :- P(x)")
        assert certain_answers_over_worlds(query, worlds) == {(Constant("a"),)}

    def test_possible_is_union(self):
        worlds = [
            Instance.build({"P": [("a",)]}),
            Instance.build({"P": [("b",)]}),
        ]
        query = parse_query("q(x) :- P(x)")
        assert possible_answers_over_worlds(query, worlds) == {
            (Constant("a"),),
            (Constant("b"),),
        }

    def test_empty_world_set_is_uncertain(self):
        query = parse_query("q(x) :- P(x)")
        assert certain_answers_over_worlds(query, []) == frozenset()
        assert possible_answers_over_worlds(query, []) == frozenset()

    def test_null_answers_discarded(self):
        from repro.datamodel.atoms import atom
        from repro.datamodel.terms import Null

        worlds = [Instance.of([atom("P", Null("n"))])]
        query = parse_query("q(x) :- P(x)")
        assert certain_answers_over_worlds(query, worlds) == frozenset()


class TestRoundTripAnswers:
    def test_union_source_membership_is_uncertain(self):
        # After exporting {Crm-style} union data, which feed a value
        # came from is possible but not certain.
        source = Instance.build({"P": [("a",)], "Q": [("b",)]})
        p_query = parse_query("q(x) :- P(x)")
        certain = recovered_certain_answers(
            union_mapping(), union_quasi_inverse(), source, p_query
        )
        possible = recovered_possible_answers(
            union_mapping(), union_quasi_inverse(), source, p_query
        )
        assert certain == frozenset()
        assert possible == {(Constant("a"),), (Constant("b"),)}

    def test_join_recovery_certainly_answers_join_queries(self):
        source = Instance.build({"P": [("a", "b", "c")]})
        query = parse_query("q(x, z) :- P(x, y, z)")
        certain = recovered_certain_answers(
            decomposition(), decomposition_quasi_inverse_join(), source, query
        )
        assert certain == {(Constant("a"), Constant("c"))}

    def test_certain_subset_of_possible(self):
        source = Instance.build({"P": [("a",), ("b",)], "Q": [("b",)]})
        query = parse_query("q(x) :- Q(x)")
        certain = recovered_certain_answers(
            union_mapping(), union_quasi_inverse(), source, query
        )
        possible = recovered_possible_answers(
            union_mapping(), union_quasi_inverse(), source, query
        )
        assert certain <= possible

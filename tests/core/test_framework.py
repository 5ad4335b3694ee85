"""Unit tests for the (∼1,∼2)-inverse framework (Section 3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    example_5_4,
    projection,
    prop_3_12,
    union_mapping,
    union_quasi_inverse,
)
from repro.core.framework import (
    Equality,
    SolutionEquivalence,
    _default_witnesses,
    is_generalized_inverse,
    is_inverse,
    is_quasi_inverse,
    subset_property,
    unique_solutions_property,
)
from repro.core.inverse import inverse
from repro.core.mapping import SchemaMapping
from repro.core.quasi_inverse import quasi_inverse
from repro.datamodel.instances import Instance
from repro.workloads import instance_universe


class TestEquivalenceRelations:
    def test_equality_relation(self):
        left = Instance.build({"P": [("a", "b")]})
        assert Equality().related(left, left)
        assert not Equality().related(left, Instance.build({"P": [("a", "c")]}))

    def test_solution_equivalence_is_coarser(self):
        mapping = projection()
        relation = SolutionEquivalence(mapping)
        left = Instance.build({"P": [("a", "b")]})
        right = Instance.build({"P": [("a", "c")]})
        assert relation.related(left, right)
        assert not Equality().related(left, right)

    def test_solution_equivalence_refines_nothing_on_invertible(self):
        # For an invertible mapping, ∼M coincides with equality
        # (the unique-solutions property) — Proposition 3.9's engine.
        mapping = example_5_4()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
        relation = SolutionEquivalence(mapping)
        for left in universe:
            for right in universe:
                assert relation.related(left, right) == (left == right)


class TestUniqueSolutions:
    def test_fails_for_the_intro_mappings(self):
        for mapping in (projection(), union_mapping(), decomposition()):
            universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
            holds, violations = unique_solutions_property(mapping, universe)
            assert not holds and violations

    def test_holds_for_the_invertible_example(self):
        mapping = example_5_4()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
        holds, violations = unique_solutions_property(mapping, universe)
        assert holds and not violations


class TestSubsetProperty:
    def test_decomposition_has_it(self):
        mapping = decomposition()
        universe = instance_universe(mapping.source, [0, 1], max_facts=1)
        relation = SolutionEquivalence(mapping)
        assert subset_property(mapping, relation, relation, universe).holds

    def test_even_the_stronger_variant(self):
        # Example 3.10 actually shows the (=, ∼M)-subset property.
        mapping = decomposition()
        universe = instance_universe(mapping.source, [0, 1], max_facts=1)
        report = subset_property(
            mapping, Equality(), SolutionEquivalence(mapping), universe
        )
        assert report.holds

    def test_prop_3_12_violation_found(self):
        mapping = prop_3_12()
        left = Instance.build({"E": [(0, 0)]})
        right = Instance.build({"E": [(0, 1), (0, 2), (1, 0), (1, 1)]})
        relation = SolutionEquivalence(mapping)
        report = subset_property(mapping, relation, relation, [left, right])
        assert not report.holds
        assert (left, right) in report.violations

    def test_equality_subset_property_fails_for_projection(self):
        # Projection lacks the (=,=)-subset property: P(a,b) and P(a,c)
        # have the same solutions but neither contains the other.
        mapping = projection()
        universe = [
            Instance.build({"P": [("a", "b")]}),
            Instance.build({"P": [("a", "c")]}),
        ]
        report = subset_property(
            mapping, Equality(), Equality(), universe,
            witness_universe=universe,
        )
        assert not report.holds

    def test_violation_listing_without_early_stop(self):
        mapping = projection()
        universe = [
            Instance.build({"P": [("a", "b")]}),
            Instance.build({"P": [("a", "c")]}),
        ]
        report = subset_property(
            mapping,
            Equality(),
            Equality(),
            universe,
            witness_universe=universe,
            stop_at_first_violation=False,
        )
        assert len(report.violations) == 2  # both directions


def _union_closure_oracle(universe):
    """The former witness-pool construction: every pairwise union built as
    an Instance, duplicates discarded afterwards."""
    pool = list(universe)
    seen = set(pool)
    for left in universe:
        for right in universe:
            union = left.union(right)
            if union not in seen:
                seen.add(union)
                pool.append(union)
    return pool


_WITNESS_CANDIDATES = list(
    instance_universe(decomposition().source, ["a", "b"], max_facts=2)
)


class TestDefaultWitnesses:
    @settings(max_examples=100, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(_WITNESS_CANDIDATES) - 1),
            max_size=12,
        )
    )
    def test_pool_matches_the_union_building_oracle(self, picks):
        # repeats included: a universe may list one instance twice
        universe = [_WITNESS_CANDIDATES[pick] for pick in picks]
        assert _default_witnesses(universe) == _union_closure_oracle(universe)

    def test_pool_of_the_decomposition_universe(self):
        universe = list(_WITNESS_CANDIDATES)
        assert _default_witnesses(universe) == _union_closure_oracle(universe)


class TestInverseChecks:
    def test_paper_inverse_accepted(self):
        mapping = example_5_4()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        assert is_inverse(mapping, inverse(mapping), universe).holds

    def test_wrong_candidate_rejected_with_witness(self):
        mapping = example_5_4()
        # A bogus reverse mapping that only recovers the diagonal: on
        # I1 = {R(a,b)} it recovers nothing, so (I1, ∅) lands in
        # Inst(M∘M') although it is not in Inst(Id).
        bogus = SchemaMapping.from_text(
            mapping.target, mapping.source, "U(x1) -> R(x1, x1)"
        )
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        verdict = is_inverse(mapping, bogus, universe)
        assert not verdict.holds
        assert verdict.mismatches[0][2] == "comp_only"

    def test_quasi_inverse_check_accepts_paper_quasi_inverses(self):
        mapping = union_mapping()
        universe = instance_universe(mapping.source, ["a"], max_facts=1)
        assert is_quasi_inverse(mapping, union_quasi_inverse(), universe).holds
        assert is_quasi_inverse(mapping, quasi_inverse(mapping), universe).holds

    def test_quasi_inverse_check_rejects_swapped_recovery(self):
        mapping = decomposition()
        # Reverses the join the wrong way round: Q and R transposed.
        swapped = SchemaMapping.from_text(
            mapping.target, mapping.source, "Q(x, y) & R(y, z) -> P(z, y, x)"
        )
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        assert not is_quasi_inverse(mapping, swapped, universe).holds

    def test_generalized_inverse_monotone_in_relations(self):
        # Proposition 3.7: a (=,=)-inverse is a (∼M,∼M)-inverse.
        mapping = example_5_4()
        computed = inverse(mapping)
        universe = instance_universe(mapping.source, ["a"], max_facts=1)
        equality = Equality()
        equivalence = SolutionEquivalence(mapping)
        assert is_generalized_inverse(
            mapping, computed, equality, equality, universe
        ).holds
        assert is_generalized_inverse(
            mapping, computed, equivalence, equivalence, universe
        ).holds

    def test_join_quasi_inverse_of_decomposition_is_not_an_inverse(self):
        # Quasi-inverse yes (Example 3.10), inverse no: on
        # I = {P(a,a,b), P(b,a,a)} the join re-derives P(b,a,b), so
        # (I, I) ∈ Inst(Id) but not in Inst(M∘M').  Two facts are
        # needed to expose this, so the universes differ in size.
        mapping = decomposition()
        reverse = decomposition_quasi_inverse_join()
        pair_universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
        verdict = is_inverse(mapping, reverse, pair_universe)
        assert not verdict.holds
        small_universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        assert is_quasi_inverse(mapping, reverse, small_universe).holds

"""Cross-validation between independent implementations.

The library often has two routes to the same semantics; these tests
pin them against each other:

* `compose_full` (generator resolution) vs `compose_skolem`
  (unification) on full first mappings;
* the (=, ∼M)-inverse layer: Example 3.10 establishes the stronger
  (=, ∼M)-subset property for Decomposition, so by Theorem 3.5 a
  (=, ∼M)-inverse exists — and the join reverse is one;
* the exhaustive and proof-based MinGen on the mappings the other
  tests do not cover, among them the three with two-atom premises
  (Thm 4.10, Example 5.4, the unique-solutions separation), whose
  premise matches join a candidate's new atom with an old one.
"""

import pytest

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    example_5_4,
    thm_4_9,
    thm_4_10,
    thm_4_11,
    unique_solutions_separation,
)
from repro.chase.homomorphism import is_homomorphically_equivalent
from repro.core.composition import compose_full
from repro.core.framework import Equality, SolutionEquivalence, is_generalized_inverse
from repro.core.generators import (
    MinGenConfig,
    _canonical_key,
    minimal_generators,
    minimal_generators_exhaustive,
)
from repro.core.mapping import SchemaMapping, universal_solution
from repro.core.skolem import compose_skolem, skolem_exchange
from repro.datamodel.schemas import Schema
from repro.workloads import instance_universe, random_ground_instance


class TestCompositionRoutesAgree:
    @pytest.mark.parametrize("factory", [decomposition, thm_4_9, thm_4_10])
    def test_full_composition_vs_skolem_composition(self, factory):
        first = factory()
        # A second mapping copying one middle relation forward.
        relation, arity = first.target.relations[0]
        variables = ", ".join(f"x{i + 1}" for i in range(arity))
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"Out": arity}),
            f"{relation}({variables}) -> Out({variables})",
        )
        via_generators = compose_full(first, second)
        via_skolem = compose_skolem(first, second)
        for seed in range(3):
            source = random_ground_instance(
                first.source, seed=seed, n_facts=4, domain_size=2
            )
            left = universal_solution(via_generators, source)
            right = skolem_exchange(via_skolem, source)
            assert is_homomorphically_equivalent(left, right)


class TestMixedRelationInverse:
    def test_join_reverse_is_an_equality_similarity_inverse(self):
        # Example 3.10's stronger claim, checked through the generic
        # (∼1, ∼2) layer with ∼1 = equality.
        mapping = decomposition()
        reverse = decomposition_quasi_inverse_join()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        verdict = is_generalized_inverse(
            mapping,
            reverse,
            Equality(),
            SolutionEquivalence(mapping),
            universe,
        )
        assert verdict.holds


class TestMinGenOracleMore:
    @pytest.mark.parametrize(
        "factory",
        [thm_4_9, thm_4_10, thm_4_11, example_5_4, unique_solutions_separation],
    )
    def test_proofs_match_exhaustive(self, factory):
        mapping = factory()
        for sigma in mapping.dependencies:
            goal = sigma.disjuncts[0]
            frontier = sigma.frontier()
            fast = minimal_generators(mapping, goal, frontier)
            slow = minimal_generators_exhaustive(
                mapping, goal, frontier, MinGenConfig(method="exhaustive")
            )
            assert {
                _canonical_key(g.atoms, frontier) for g in fast
            } == {_canonical_key(g.atoms, frontier) for g in slow}

"""Unit tests for skolemized mappings and syntactic composition."""

import pytest

from repro.catalog import decomposition, projection, thm_4_8, union_mapping
from repro.chase.homomorphism import is_homomorphically_equivalent
from repro.core.mapping import MappingError, SchemaMapping, universal_solution
from repro.core.skolem import (
    SkolemTerm,
    compose_skolem,
    skolem_exchange,
    skolemize,
)
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.dataexchange.exchange import exchange
from repro.workloads import random_ground_instance, random_lav_mapping


class TestSkolemize:
    def test_existentials_become_function_terms(self):
        skolemized = skolemize(thm_4_8())
        rule = skolemized.rules[0]
        terms = [arg for atom in rule.conclusion for arg in atom.args]
        functions = [t for t in terms if isinstance(t, SkolemTerm)]
        assert functions
        # The same existential variable becomes the same function term.
        assert functions[0] == functions[1]

    def test_functions_depend_on_the_frontier(self):
        skolemized = skolemize(projection().augment_target("Extra", 1))
        # Projection is full: no function terms at all.
        assert not any(
            isinstance(arg, SkolemTerm)
            for rule in skolemized.rules
            for atom in rule.conclusion
            for arg in atom.args
        )

    def test_distinct_tgds_get_distinct_functions(self):
        mapping = SchemaMapping.from_text(
            Schema.of({"A": 1, "B": 1}),
            Schema.of({"C": 2}),
            "A(x) -> C(x, y)\nB(x) -> C(x, y)",
        )
        skolemized = skolemize(mapping)
        functions = {
            arg.function
            for rule in skolemized.rules
            for atom in rule.conclusion
            for arg in atom.args
            if isinstance(arg, SkolemTerm)
        }
        assert len(functions) == 2

    def test_requires_tgd_mapping(self):
        reverse = SchemaMapping.from_text(
            Schema.of({"S": 1}),
            Schema.of({"P": 1, "Q": 1}),
            "S(x) -> P(x) | Q(x)",
        )
        with pytest.raises(MappingError):
            skolemize(reverse)


class TestSkolemExchange:
    @pytest.mark.parametrize(
        "factory", [projection, union_mapping, decomposition, thm_4_8]
    )
    def test_equivalent_to_the_chase(self, factory):
        mapping = factory()
        source = random_ground_instance(
            mapping.source, seed=1, n_facts=4, domain_size=3
        )
        direct = universal_solution(mapping, source)
        via_skolem = skolem_exchange(skolemize(mapping), source)
        assert is_homomorphically_equivalent(direct, via_skolem)

    def test_function_terms_are_memoized(self):
        # Two conclusion atoms sharing one existential share its null.
        skolemized = skolemize(thm_4_8())
        result = skolem_exchange(skolemized, Instance.build({"P": [("a", "b")]}))
        facts = result.facts_for("Q")
        assert len(facts) == 2
        middles = {facts[0].args[1], facts[1].args[0]}
        assert len(middles) == 1  # Q(a, z) and Q(z, b) share z

    def test_random_lav_mappings(self):
        for seed in range(5):
            mapping = random_lav_mapping(seed, n_source=2, n_target=2, n_tgds=3)
            source = random_ground_instance(
                mapping.source, seed=seed, n_facts=3, domain_size=2
            )
            assert is_homomorphically_equivalent(
                universal_solution(mapping, source),
                skolem_exchange(skolemize(mapping), source),
            )


class TestComposeSkolem:
    def _two_step(self, first, second, source):
        middle = exchange(first, source)
        return exchange(second, middle.restrict_to(second.source))

    def test_composition_through_shared_nulls(self):
        # The second mapping joins through the first's skolem value.
        first = thm_4_8()  # P(x,y) -> ∃z Q(x,z) ∧ Q(z,y)
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"W": 2}),
            "Q(u, v) & Q(v, w) -> W(u, w)",
        )
        composed = compose_skolem(first, second)
        source = Instance.build({"P": [("a", "b"), ("b", "c")]})
        expected = self._two_step(first, second, source)
        measured = skolem_exchange(composed, source)
        assert is_homomorphically_equivalent(expected, measured)

    def test_composition_simple_projection_chain(self):
        first = decomposition()
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"W": 2}),
            "Q(x, y) -> W(x, y)",
        )
        composed = compose_skolem(first, second)
        source = Instance.build({"P": [("a", "b", "c")]})
        assert skolem_exchange(composed, source) == Instance.build(
            {"W": [("a", "b")]}
        )

    def test_unproducible_premise_gives_no_rules(self):
        first = projection()  # only Q is populated
        second = SchemaMapping.from_text(
            Schema.of({"Q": 1, "Dead": 1}),
            Schema.of({"W": 1}),
            "Dead(x) -> W(x)",
        )
        first = SchemaMapping(
            first.source,
            first.target.augment("Dead", 1),
            first.dependencies,
            name=first.name,
        )
        composed = compose_skolem(first, second)
        assert composed.rules == ()

    def test_null_demanding_premise_is_dropped(self):
        # The second mapping requires a Q-pair whose first column is a
        # skolem value AND a source constant simultaneously — dropped.
        first = SchemaMapping.from_text(
            Schema.of({"P": 1}),
            Schema.of({"Q": 2}),
            "P(x) -> Q(x, y)",
        )
        second = SchemaMapping.from_text(
            first.target,
            Schema.of({"W": 1}),
            "Q(u, v) & Q(v, u2) -> W(u)",
        )
        composed = compose_skolem(first, second)
        source = Instance.build({"P": [("a",)]})
        # Q(a, n) cannot chain with Q(n, ·) on a ground source.
        assert skolem_exchange(composed, source) == Instance.empty()
        assert self._two_step(first, second, source) == Instance.empty()

    def test_agreement_on_random_lav_pipelines(self):
        for seed in range(4):
            first = random_lav_mapping(seed, n_source=2, n_target=2, n_tgds=2)
            second = random_lav_mapping(
                seed + 100,
                n_source=len(first.target.relations),
                n_target=2,
                n_tgds=2,
            )
            # Align second's source schema with first's target schema.
            second = _align(second, first.target)
            if second is None:
                continue
            composed = compose_skolem(first, second)
            source = random_ground_instance(
                first.source, seed=seed, n_facts=3, domain_size=2
            )
            expected = self._two_step(first, second, source)
            measured = skolem_exchange(composed, source)
            assert is_homomorphically_equivalent(expected, measured)

    def test_middle_schema_mismatch_rejected(self):
        with pytest.raises(MappingError):
            compose_skolem(projection(), projection())


def _align(mapping, middle_schema):
    """Rename the mapping's source relations onto *middle_schema* and
    its target relations apart from it (C-prefixed), so the pipeline's
    schemas stay pairwise disjoint.

    Returns None when the arities cannot be matched one-to-one.
    """
    from repro.datamodel.atoms import Atom
    from repro.dependencies.dependency import Dependency, Premise

    old = list(mapping.source.relations)
    new = list(middle_schema.relations)
    if sorted(arity for _, arity in old) != sorted(arity for _, arity in new):
        return None
    renaming = {}
    remaining = list(new)
    for name, arity in old:
        for candidate in remaining:
            if candidate[1] == arity:
                renaming[name] = candidate[0]
                remaining.remove(candidate)
                break
        else:
            return None
    target_renaming = {
        name: f"C{index + 1}"
        for index, (name, _) in enumerate(mapping.target.relations)
    }
    target = Schema.of(
        {target_renaming[name]: arity for name, arity in mapping.target.relations}
    )
    dependencies = []
    for dep in mapping.dependencies:
        premise_atoms = tuple(
            Atom(renaming[a.relation], a.args) for a in dep.premise.atoms
        )
        conclusion = tuple(
            Atom(target_renaming[a.relation], a.args)
            for a in dep.disjuncts[0]
        )
        dependencies.append(
            Dependency(Premise(premise_atoms), (conclusion,))
        )
    return SchemaMapping(
        middle_schema, target, tuple(dependencies), name=mapping.name
    )

"""Unit tests for SchemaMapping and solution-space reasoning."""

import pytest

from repro.catalog import decomposition, example_3_10_witnesses, projection
from repro.core.mapping import (
    MappingError,
    SchemaMapping,
    core_universal_solution,
    data_exchange_equivalent,
    identity_mapping,
    is_solution,
    solutions_contained,
    universal_solution,
)
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.dependencies.dependency import DependencyError
from repro.engine import BACKEND_MODES, reset_all_caches, use_backend
from repro.engine.cache import chase_cache, resize_caches, verdict_cache


class TestConstruction:
    def test_from_text(self):
        mapping = SchemaMapping.from_text(
            Schema.of({"P": 2}), Schema.of({"Q": 1}), "P(x, y) -> Q(x)"
        )
        assert len(mapping.dependencies) == 1

    def test_dependencies_validated_against_schemas(self):
        with pytest.raises(DependencyError):
            SchemaMapping.from_text(
                Schema.of({"P": 2}), Schema.of({"Q": 1}), "P(x) -> Q(x)"
            )

    def test_name_not_part_of_identity(self):
        left = projection()
        right = SchemaMapping(left.source, left.target, left.dependencies, name="other")
        assert left == right

    def test_classification(self):
        mapping = decomposition()
        assert mapping.is_tgd_mapping()
        assert mapping.is_full()
        assert mapping.is_lav()

    def test_augment_source(self):
        grown = projection().augment_source("Extra", 2)
        assert "Extra" in grown.source
        assert grown.dependencies == projection().dependencies


class TestIdentityMapping:
    def test_identity_dependencies(self):
        schema = Schema.of({"P": 2, "Q": 1})
        identity = identity_mapping(schema)
        assert len(identity.dependencies) == 2
        assert all(dep.is_full() and dep.is_lav() for dep in identity.dependencies)

    def test_identity_semantics_is_containment(self):
        schema = Schema.of({"P": 1})
        identity = identity_mapping(schema)
        small = Instance.build({"P": [("a",)]})
        big = Instance.build({"P": [("a",), ("b",)]})
        assert is_solution(identity, small, big)
        assert not is_solution(identity, big, small)


class TestUniversalSolution:
    def test_is_the_chase_restricted_to_target(self):
        mapping = decomposition()
        source = Instance.build({"P": [("a", "b", "c")]})
        solution = universal_solution(mapping, source)
        assert solution == Instance.build({"Q": [("a", "b")], "R": [("b", "c")]})

    def test_requires_tgd_mapping(self):
        reverse = SchemaMapping.from_text(
            Schema.of({"Q": 1}),
            Schema.of({"P": 2}),
            "Q(x) & Constant(x) -> P(x, y)",
        )
        with pytest.raises(MappingError):
            universal_solution(reverse, Instance.build({"Q": [("a",)]}))

    def test_caching_returns_equal_results(self):
        mapping = decomposition()
        source = Instance.build({"P": [("a", "b", "c")]})
        assert universal_solution(mapping, source) is universal_solution(
            mapping, source
        )

    def test_a_disjunctive_mapping_raises_after_tgd_solutions_are_cached(self):
        # The tgd check runs behind a memo miss; a disjunctive mapping
        # never has an entry to hit, so every call still raises.
        source, target = Schema.of({"S": 1}), Schema.of({"P": 1, "Q": 1})
        tgds = SchemaMapping.from_text(source, target, "S(x) -> P(x)")
        disjunctive = SchemaMapping.from_text(source, target, "S(x) -> P(x) | Q(x)")
        instance = Instance.build({"S": [("a",)]})
        universal_solution(tgds, instance)
        assert solutions_contained(tgds, instance, instance)
        for _ in range(2):
            with pytest.raises(MappingError):
                universal_solution(disjunctive, Instance.build({"S": [("a",)]}))
            with pytest.raises(MappingError):
                solutions_contained(disjunctive, instance, instance)


class TestCoreUniversalSolution:
    """The core memo lives in ``chase_cache``, so the engine's cache
    knobs reach it like every other memo."""

    @staticmethod
    def _count_cores(monkeypatch):
        import repro.chase.homomorphism as homomorphism

        calls = []
        real = homomorphism.core

        def counting(instance):
            calls.append(instance)
            return real(instance)

        monkeypatch.setattr(homomorphism, "core", counting)
        return calls

    def test_a_repeat_hits_and_a_reset_recomputes(self, monkeypatch):
        calls = self._count_cores(monkeypatch)
        mapping = projection()
        source = Instance.build({"P": [("a", "b"), ("a", "c")]})
        reset_all_caches()
        first = core_universal_solution(mapping, source)
        assert core_universal_solution(mapping, Instance.of(source.facts)) is first
        assert len(calls) == 1
        reset_all_caches()
        again = core_universal_solution(mapping, source)
        assert len(calls) == 2 and again == first

    def test_entries_are_bounded_by_the_cache_size(self, monkeypatch):
        calls = self._count_cores(monkeypatch)
        mapping = projection()
        first = Instance.build({"P": [("a", "b")]})
        second = Instance.build({"P": [("c", "d")]})
        reset_all_caches()
        previous = resize_caches(1)
        try:
            core_universal_solution(mapping, first)
            core_universal_solution(mapping, second)
            core_universal_solution(mapping, first)
        finally:
            resize_caches(previous)
        assert len(calls) == 3


class TestOneMemoPath:
    """``universal_solution`` and ``solutions_contained`` memoize through
    the engine's chase and verdict caches on every backend alike; the
    backend only computes what a miss needs."""

    @staticmethod
    def _checks(mapping, small, big):
        return (
            universal_solution(mapping, big),
            solutions_contained(mapping, big, small),
            data_exchange_equivalent(mapping, small, big),
            data_exchange_equivalent(mapping, small, small),
        )

    @staticmethod
    def _counters():
        return tuple(
            (cache.hits, cache.misses) for cache in (chase_cache, verdict_cache)
        )

    def test_every_backend_moves_the_caches_alike(self):
        mapping = decomposition()
        moves = {}
        for backend in BACKEND_MODES:
            reset_all_caches()
            small = Instance.build({"P": [("a", "b", "c")]})
            big = small.union(Instance.build({"P": [("d", "e", "f")]}))
            with use_backend(backend):
                cold = self._checks(mapping, small, big)
                after_cold = self._counters()
                # a warm repeat, with copies of the instances, only hits
                warm = self._checks(
                    mapping, Instance.of(small.facts), Instance.of(big.facts)
                )
                after_warm = self._counters()
            assert warm == cold
            for (cold_hits, cold_misses), (warm_hits, warm_misses) in zip(
                after_cold, after_warm
            ):
                assert warm_misses == cold_misses and warm_hits > cold_hits
            moves[backend] = (cold, after_cold, after_warm)
        assert all(move == moves["object"] for move in moves.values())


class TestIsSolution:
    def test_model_checking_full_language(self):
        reverse = SchemaMapping.from_text(
            Schema.of({"S": 1}),
            Schema.of({"P": 1, "Q": 1}),
            "S(x) -> P(x) | Q(x)",
        )
        target = Instance.build({"S": [("a",)]})
        assert is_solution(reverse, target, Instance.build({"P": [("a",)]}))
        assert is_solution(reverse, target, Instance.build({"Q": [("a",)]}))
        assert not is_solution(reverse, target, Instance.build({"P": [("b",)]}))

    def test_every_premise_match_must_be_satisfied(self):
        mapping = projection()
        source = Instance.build({"P": [("a", "b"), ("c", "d")]})
        assert not is_solution(mapping, source, Instance.build({"Q": [("a",)]}))
        assert is_solution(
            mapping, source, Instance.build({"Q": [("a",), ("c",)]})
        )


class TestSolutionSpaces:
    def test_containment_follows_source_containment(self):
        mapping = decomposition()
        small = Instance.build({"P": [("a", "b", "c")]})
        big = small.union(Instance.build({"P": [("d", "e", "f")]}))
        assert solutions_contained(mapping, big, small)
        assert not solutions_contained(mapping, small, big)

    def test_example_3_10_equivalence(self):
        mapping = decomposition()
        left, right = example_3_10_witnesses()
        assert data_exchange_equivalent(mapping, left, right)
        assert solutions_contained(mapping, left, right)
        assert solutions_contained(mapping, right, left)

    def test_projection_merges_second_coordinate(self):
        mapping = projection()
        left = Instance.build({"P": [("a", "b")]})
        right = Instance.build({"P": [("a", "c")]})
        assert data_exchange_equivalent(mapping, left, right)

    def test_equivalence_distinguishes_first_coordinate(self):
        mapping = projection()
        left = Instance.build({"P": [("a", "b")]})
        right = Instance.build({"P": [("c", "b")]})
        assert not data_exchange_equivalent(mapping, left, right)

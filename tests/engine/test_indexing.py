"""Unit tests for the engine's inverted fact index."""

import gc
import weakref

from repro.chase.homomorphism import (
    _match_atom,
    all_homomorphisms,
    find_homomorphism,
)
from repro.datamodel.atoms import atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Variable
from repro.engine import FactIndex, fact_index, resize_caches
from repro.engine.indexing import index_cache

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestFactIndex:
    def test_postings_group_by_relation_position_term(self):
        instance = Instance.build({"P": [("a", "b"), ("a", "c"), ("d", "b")]})
        index = FactIndex(instance)
        posting = index.postings[("P", 0, Constant("a"))]
        assert len(posting) == 2
        assert all(fact.args[0] == Constant("a") for fact in posting)

    def test_postings_preserve_sorted_fact_order(self):
        instance = Instance.build({"P": [("a", "b"), ("a", "c"), ("a", "a")]})
        index = FactIndex(instance)
        posting = index.postings[("P", 0, Constant("a"))]
        assert posting == instance.facts_for("P")

    def test_candidates_with_rigid_constant(self):
        instance = Instance.build({"P": [("a", "b"), ("c", "d")]})
        index = FactIndex(instance)
        candidates = index.candidates(atom("P", "a", Y), {})
        assert [fact.args[0] for fact in candidates] == [Constant("a")]

    def test_candidates_with_bound_variable(self):
        instance = Instance.build({"P": [("a", "b"), ("c", "d")]})
        index = FactIndex(instance)
        candidates = index.candidates(atom("P", X, Y), {X: Constant("c")})
        assert [fact.args[0] for fact in candidates] == [Constant("c")]

    def test_candidates_picks_most_selective_position(self):
        instance = Instance.build(
            {"P": [("a", "b"), ("a", "c"), ("a", "d"), ("e", "b")]}
        )
        index = FactIndex(instance)
        # position 0 = "a" has 3 facts; position 1 = "b" has 2
        candidates = index.candidates(
            atom("P", "a", Y), {Y: Constant("b")}
        )
        assert len(candidates) <= 2

    def test_unbound_pattern_falls_back_to_full_extent(self):
        instance = Instance.build({"P": [("a", "b"), ("c", "d")]})
        index = FactIndex(instance)
        assert index.candidates(atom("P", X, Y), {}) == instance.facts_for("P")

    def test_empty_posting_short_circuits(self):
        instance = Instance.build({"P": [("a", "b")]})
        index = FactIndex(instance)
        assert index.candidates(atom("P", "zzz", Y), {}) == ()
        assert index.candidates(atom("P", X, Y), {X: Constant("zzz")}) == ()

    def test_index_is_memoized_per_instance(self):
        instance = Instance.build({"P": [("a", "b")]})
        assert fact_index(instance) is fact_index(instance)
        # the memo keys by value, so an equal instance shares the index
        clone = Instance.build({"P": [("a", "b")]})
        assert fact_index(clone) is fact_index(instance)

    def test_copies_never_rebuild_the_index(self):
        # regression: instance copies (checkpoint replay, worker
        # round-trips) used to rebuild postings from scratch; the
        # index tier keys by the fact set, so it must absorb them
        rows = [("a", "b"), ("b", "c"), ("c", "a")]
        fact_index(Instance.build({"P": rows}))
        before = index_cache.misses
        for _ in range(5):
            copy = Instance.build({"P": list(rows)})
            fact_index(copy)
            find_homomorphism([atom("P", X, Y)], copy)
        assert index_cache.misses == before

    def test_the_tier_keeps_no_more_probed_instances_alive_than_its_bound(self):
        # regression: a weak-keyed table of indexes never dropped an
        # entry, because each index held its own key, so every instance
        # a search had probed stayed alive for the life of the process
        previous = resize_caches(8)
        try:
            refs = []
            for count in range(1_000):
                instance = Instance.build({"P": [(f"a{count}", "b")]})
                find_homomorphism([atom("P", X, Y)], instance)
                refs.append(weakref.ref(instance))
                del instance
            gc.collect()
            alive = sum(ref() is not None for ref in refs)
        finally:
            resize_caches(previous)
        assert alive <= 8


class TestIndexedSearchEquivalence:
    """The indexed search must return exactly what a linear scan would."""

    def brute_force(self, premise, target):
        """All homomorphisms by unindexed enumeration, for comparison."""
        results = []

        def extend(remaining, assignment):
            if not remaining:
                results.append(dict(assignment))
                return
            current, rest = remaining[0], remaining[1:]
            for fact in target.facts_for(current.relation):
                extension = _match_atom(current, fact, assignment)
                if extension is not None:
                    extend(rest, {**assignment, **extension})

        extend(list(premise), {})
        return results

    def test_all_homomorphisms_agree_with_brute_force(self):
        target = Instance.build(
            {"P": [("a", "b"), ("b", "c"), ("c", "a")], "Q": [("b",), ("c",)]}
        )
        premise = [atom("P", X, Y), atom("Q", Y), atom("P", Y, Z)]
        found = list(all_homomorphisms(premise, target))
        expected = self.brute_force(premise, target)
        assert len(found) == len(expected)
        assert all(hom in expected for hom in found)

    def test_find_homomorphism_joins_through_the_index(self):
        target = Instance.build({"P": [("a", "b")], "Q": [("b", "c")]})
        found = find_homomorphism([atom("P", X, Y), atom("Q", Y, Z)], target)
        assert found == {X: Constant("a"), Y: Constant("b"), Z: Constant("c")}
        assert (
            find_homomorphism([atom("P", X, Y), atom("Q", Y, Y)], target) is None
        )

"""Unit tests for the engine's content-addressed memo caches."""

import gc
import os
import subprocess
import sys
import threading
import time

import pytest

import repro.engine.cache as cache
from repro.catalog import decomposition
from repro.core.mapping import solutions_contained, universal_solution
from repro.core.framework import SolutionEquivalence, subset_property
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Null, Variable
from repro.engine import (
    MemoCache,
    all_cache_stats,
    cached_chase_result,
    canonical_key,
    canonicalize_instance,
    chase_cache,
    fact_index,
    ground_canonical_form,
    mapping_key,
    reset_all_caches,
)
from repro.engine.cache import resize_caches, symmetry_keys_apply
from repro.engine.indexing import index_cache
from repro.engine.store import stable_digest
from repro.engine.context import scope
from repro.engine.symmetry import canon_cache
from repro.workloads import power_instances, random_lav_mapping

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: The tiers that memoize what an instance's fact set determines: its
#: fact index and its canonical form.
INSTANCE_TIERS = {
    "index": index_cache,
    "canon": canon_cache,
}


class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache("t-basic", maxsize=4)
        hit, value = cache.get("k")
        assert (hit, value) == (False, None)
        cache.put("k", 42)
        hit, value = cache.get("k")
        assert (hit, value) == (True, 42)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_memoize_computes_once(self):
        cache = MemoCache("t-memoize", maxsize=4)
        calls = []
        compute = lambda: calls.append(1) or "v"  # noqa: E731
        assert cache.memoize("k", compute) == "v"
        assert cache.memoize("k", compute) == "v"
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = MemoCache("t-lru", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes least recently used
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.stats().evictions == 1

    def test_concurrent_probes_survive_evictions(self):
        # Daemon threads share every cache without a lock, so one
        # thread may evict a key between another's read of it and its
        # LRU refresh: that read is still a hit, never a KeyError.
        cache = MemoCache("t-threads", maxsize=2)
        threads = 8
        start = threading.Barrier(threads, timeout=10)
        errors = []
        rounds = []

        def hammer(offset):
            start.wait()
            deadline = time.monotonic() + 2.0
            done = 0
            try:
                while done < 20_000 and time.monotonic() < deadline:
                    key = (offset + done) % 5
                    if cache.memoize(key, lambda key=key: key * 10) != key * 10:
                        errors.append((offset, key))
                    done += 1
            except Exception as error:
                errors.append((offset, repr(error)))
            rounds.append(done)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert len(rounds) == threads and min(rounds) >= 1

    def test_resize_shrinks_and_evicts(self):
        cache = MemoCache("t-resize", maxsize=8)
        for i in range(8):
            cache.put(i, i)
        resize_caches(2)
        try:
            assert cache.maxsize == 2
            assert cache.stats().size == 2
            assert cache.get(7) == (True, 7)  # newest entries survive
        finally:
            resize_caches(None)

    def test_resize_none_restores_construction_defaults(self):
        cache = MemoCache("t-resize-none", maxsize=8)
        resize_caches(3)
        try:
            assert cache.maxsize == 3
        finally:
            resize_caches(None)
        assert cache.maxsize == 8

    def test_configured_size_applies_to_later_caches(self):
        # The --cache-size knob must bind caches constructed *after*
        # resize_caches ran (the CLI parses flags before most caches
        # are touched, but test caches come later).
        resize_caches(5)
        try:
            late = MemoCache("t-late", maxsize=1000)
            assert late.maxsize == 5
            for i in range(10):
                late.put(i, i)
            assert late.stats().size == 5
        finally:
            resize_caches(None)
        assert late.maxsize == 1000

    @pytest.mark.parametrize("name", sorted(INSTANCE_TIERS))
    def test_resize_bounds_the_instance_tiers(self, name):
        tier = INSTANCE_TIERS[name]
        resize_caches(7)
        try:
            assert tier.maxsize == 7
        finally:
            resize_caches(None)
        # above the ~20,500 indexes E5 builds in one cold run
        assert tier.maxsize == 65_536


class TestInstanceTiers:
    """The fact index and the canonical form are memo tiers like every
    other: listed, keyed by the fact set, and emptied by a reset."""

    @pytest.mark.parametrize("name", sorted(INSTANCE_TIERS))
    def test_copies_share_one_entry_until_a_reset(self, name):
        reset_all_caches()
        for _ in range(2):
            instance = Instance.build({"P": [("a", "b"), ("b", "c")]})
            fact_index(instance)
            ground_canonical_form(instance)
        stats = {stats.name: stats for stats in all_cache_stats()}[name]
        assert (stats.size, stats.hits, stats.misses) == (1, 1, 1)
        reset_all_caches()
        assert INSTANCE_TIERS[name].stats().size == 0


@pytest.mark.parametrize(
    "module",
    [
        "repro.engine.symmetry",
        "repro.engine.cache",
        "repro.engine.indexing",
        "repro.engine.sqlbackend",
        "repro.engine.context",
        "repro.chase.standard",
        "repro.chase.homomorphism",
    ],
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # cache.py binds symmetry's names last, because symmetry imports
    # cache for its memo tier; every entry point must still import
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestCanonicalization:
    def test_ground_instances_are_their_own_canonical_form(self):
        instance = Instance.build({"P": [("a", "b"), ("b", "c")]})
        canonical, forward = canonicalize_instance(instance)
        assert canonical == instance
        assert forward == {}

    def test_isomorphic_instances_share_a_key(self):
        left = Instance.build({"P": [("a", Null("n1")), (Null("n1"), Null("n2"))]})
        right = Instance.build({"P": [("a", Null("x")), (Null("x"), Null("y"))]})
        assert left != right
        assert canonical_key(left) == canonical_key(right)

    def test_variables_and_nulls_do_not_collide(self):
        with_null = Instance.build({"P": [("a", Null("n"))]})
        with_var = Instance.build({"P": [("a", Variable("n"))]})
        assert canonical_key(with_null) != canonical_key(with_var)

    def test_distinct_structures_get_distinct_keys(self):
        chain = Instance.build({"P": [("a", Null("n1")), (Null("n1"), "b")]})
        fork = Instance.build({"P": [("a", Null("n1")), (Null("n2"), "b")]})
        assert canonical_key(chain) != canonical_key(fork)

    def test_canonical_renaming_is_a_bijection(self):
        instance = Instance.build(
            {"P": [(Null("u"), Null("v"))], "Q": [(Null("v"), Null("w"))]}
        )
        canonical, forward = canonicalize_instance(instance)
        assert len(set(forward.values())) == len(forward) == 3
        assert canonical.substitute(
            {image: original for original, image in forward.items()}
        ) == instance


class TestCachedChaseResult:
    def setup_method(self):
        reset_all_caches()

    def test_non_ground_instances_key_by_their_exact_facts(self):
        mapping = decomposition()
        calls = []

        def solve(_mapping, instance):
            calls.append(instance)
            # echo the input plus one chase-fresh null, like a real chase
            return instance.union(
                Instance.build({"P": [(Null("fresh"), "d", "e")]})
            )

        first = Instance.build({"P": [(Null("a"), "s", "t")]})
        copy = Instance.build({"P": [(Null("a"), "s", "t")]})
        renamed = Instance.build({"P": [(Null("b"), "s", "t")]})
        result = cached_chase_result(mapping, first, solve)
        assert cached_chase_result(mapping, copy, solve) is result
        # an isomorphic instance is an entry of its own, solved directly
        assert cached_chase_result(mapping, renamed, solve) == renamed.union(
            Instance.build({"P": [(Null("fresh"), "d", "e")]})
        )
        assert calls == [first, renamed]

    def test_orbit_members_share_one_ground_chase(self):
        # Under an orbit-mode sweep the chase of a ground instance is
        # solved once per constant-permutation orbit, on the orbit's
        # canonical form, and renamed back onto each member's constants.
        mapping = decomposition()
        calls = []

        def direct(instance):
            (fact,) = instance.facts
            first, second, _ = fact.args
            return instance.union(
                Instance.build({"P": [(second, Null("fresh"), first)]})
            )

        def solve(_mapping, instance):
            calls.append(instance)
            return direct(instance)

        member = Instance.build({"P": [("a", "b", "c")]})
        other = Instance.build({"P": [("c", "a", "b")]})
        with scope(ground_keys=True):
            assert cached_chase_result(mapping, member, solve) == direct(member)
            assert cached_chase_result(mapping, other, solve) == direct(other)
            assert cached_chase_result(mapping, other, solve) == direct(other)
        assert len(calls) == 1 and calls[0] not in (member, other)

    def test_distinct_mappings_do_not_share_entries(self):
        from repro.catalog import projection

        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        key_one = (mapping_key(decomposition()), canonical_key(seed))
        key_two = (mapping_key(projection()), canonical_key(seed))
        assert key_one != key_two

    def test_hit_counters_advance(self):
        mapping = decomposition()
        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        solve = lambda _mapping, instance: instance  # noqa: E731
        before = chase_cache.stats()
        cached_chase_result(mapping, seed, solve)
        cached_chase_result(mapping, seed, solve)
        after = chase_cache.stats()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1


class TestSharedKeys:
    """Keys are derived once per object and shared by equal objects, so
    a warm memo probe matches its entry by identity."""

    def setup_method(self):
        reset_all_caches()

    def test_equal_instances_get_one_key_object(self):
        first = Instance.build({"P": [("a", "b"), ("b", "c")]})
        second = Instance.build({"P": [("b", "c"), ("a", "b")]})
        assert first is not second
        assert canonical_key(first) is canonical_key(second)

    def test_isomorphic_instances_get_one_key_object(self):
        left = Instance.build({"P": [("a", Null("n1")), (Null("n1"), Null("n2"))]})
        right = Instance.build({"P": [("a", Null("x")), (Null("x"), Null("y"))]})
        assert canonical_key(left) is canonical_key(right)

    def test_a_rebuilt_mapping_gets_the_collected_copys_key_object(self):
        key = mapping_key(random_lav_mapping(3, n_tgds=3))
        gc.collect()
        rebuilt = random_lav_mapping(3, n_tgds=3)
        assert mapping_key(rebuilt) is key

    def test_keys_are_derived_once_per_object(self, monkeypatch):
        instance = Instance.build({"P": [("a", Null("n"))]})
        mapping = decomposition()
        first = (canonical_key(instance), mapping_key(mapping))

        def refuse(*_args):
            raise AssertionError("a key was derived twice")

        monkeypatch.setattr(cache, "canonicalize_instance", refuse)
        monkeypatch.setattr(type(mapping.dependencies[0]), "canonical_form", refuse)
        assert (canonical_key(instance), mapping_key(mapping)) == first

    def test_a_warm_probe_hashes_no_dependency(self, monkeypatch):
        # A mapping key caches its hash, so neither memo re-hashes the
        # mapping's dependencies on a hit.
        mapping = decomposition()
        left = Instance.build({"P": [("a", "b", "c")]})
        right = Instance.build({"P": [("a", "b", "c"), ("c", "b", "a")]})
        verdict = solutions_contained(mapping, left, right)
        solution = universal_solution(mapping, left)
        dependency_type = type(mapping.dependencies[0])
        original = dependency_type.__hash__
        hashed = []
        monkeypatch.setattr(
            dependency_type, "__hash__", lambda self: hashed.append(self) or original(self)
        )
        assert solutions_contained(mapping, left, right) == verdict
        assert universal_solution(mapping, left) is solution
        assert hashed == []

    def test_the_symmetry_flag_is_computed_once_per_mapping(self, monkeypatch):
        mapping = decomposition()
        with scope(ground_keys=True):
            assert symmetry_keys_apply(mapping)
            monkeypatch.setattr(
                cache, "mapping_permutation_invariant", lambda _mapping: False
            )
            assert symmetry_keys_apply(mapping)
        assert not symmetry_keys_apply(mapping)  # outside an orbit sweep

    def test_reset_all_caches_empties_the_table(self):
        canonical_key(Instance.build({"P": [("a", "b")]}))
        assert cache._KEYS
        reset_all_caches()
        assert not cache._KEYS

    def test_table_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(cache, "_KEYS_MAX", 3)
        for count in range(10):
            instance = Instance.build({"P": [(str(count), "b")]})
            assert canonical_key(instance) == instance.facts
            assert len(cache._KEYS) <= 3


def _fresh_sweep():
    """A subset sweep over a fresh mapping and a fresh universe, so
    every probe goes through the shared-key table instead of a key
    already stored on the object."""
    mapping = decomposition()
    universe = list(power_instances(mapping.source, ("a", "b"), max_facts=2))
    equivalence = SolutionEquivalence(mapping)
    report = subset_property(
        mapping, equivalence, equivalence, universe,
        stop_at_first_violation=False, workers=1,
    )
    return mapping, universe, report


def test_concurrent_probes_get_keys_equal_to_their_content(monkeypatch):
    # Daemon jobs probe the memo caches from several threads at once; a
    # small bound makes the shared-key table clear itself while other
    # threads read and fill it.
    _, _, serial = _fresh_sweep()
    expected_mapping_key = "m:" + stable_digest(
        (
            tuple(dep.canonical_form() for dep in decomposition().dependencies),
            tuple(decomposition().target.relations),
        )
    )
    monkeypatch.setattr(cache, "_KEYS_MAX", 5)
    threads = 8
    start = threading.Barrier(threads, timeout=10)
    wrong = []
    rounds = []

    def probe(offset):
        start.wait()
        deadline = time.monotonic() + 2.0
        done = 0
        while done < 50 and time.monotonic() < deadline:
            mapping, universe, report = _fresh_sweep()
            if mapping_key(mapping) != expected_mapping_key:
                wrong.append((offset, "mapping key"))
            for instance in universe:
                if canonical_key(instance) != canonicalize_instance(instance)[0].facts:
                    wrong.append((offset, instance))
            if report != serial:
                wrong.append((offset, report))
            done += 1
        rounds.append(done)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=probe, args=(offset,))
            for offset in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []
    assert len(rounds) == threads and min(rounds) >= 1

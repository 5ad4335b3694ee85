"""Unit tests for the engine's content-addressed memo caches."""

from repro.catalog import decomposition
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Null, Variable
from repro.engine import (
    MemoCache,
    cached_chase_result,
    canonical_key,
    canonicalize_instance,
    chase_cache,
    mapping_key,
    reset_all_caches,
)
from repro.engine.cache import resize_caches


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
        # are touched, but kernel memos and test caches come later).
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

    def test_resize_pushes_symmetry_memo_limit(self):
        import repro.engine.symmetry as symmetry

        resize_caches(7)
        try:
            assert symmetry._FORM_MEMO_MAX == 7
        finally:
            resize_caches(None)
        assert symmetry._FORM_MEMO_MAX == symmetry._FORM_MEMO_DEFAULT


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

    def test_isomorphic_inputs_compute_once(self):
        mapping = decomposition()
        calls = []

        def compute(instance):
            calls.append(instance)
            # echo the input plus one chase-fresh null, like a real chase
            return instance.union(
                Instance.build({"P": [(Null("fresh"), "d", "e")]})
            )

        first = Instance.build({"P": [(Null("a"), "s", "t")]})
        second = Instance.build({"P": [(Null("b"), "s", "t")]})
        result_first = cached_chase_result(mapping, first, compute)
        result_second = cached_chase_result(mapping, second, compute)
        assert len(calls) == 1
        # each result is phrased in its caller's terms
        assert Null("a") in result_first.active_domain()
        assert Null("b") in result_second.active_domain()
        assert canonical_key(result_first) == canonical_key(result_second)

    def test_fresh_nulls_are_renamed_apart_from_the_input(self):
        mapping = decomposition()

        def compute(instance):
            return instance.union(Instance.build({"P": [(Null("fresh"), "x", "y")]}))

        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        cached_chase_result(mapping, seed, compute)  # populate
        clashing = Instance.build({"P": [(Null("fresh"), "s", "t")]})
        result = cached_chase_result(mapping, clashing, compute)
        # the caller's own "fresh" null survives; the chase-invented one
        # is renamed so the two stay distinct
        assert Null("fresh") in result.active_domain()
        assert len(result.nulls()) == 2

    def test_fresh_nulls_dodge_caller_null_and_variable_names(self):
        # The cached chase invented Null("fresh"); the caller's
        # instance uses BOTH the null name "fresh" and the variable
        # name "N0" (the first name _translate_back would otherwise
        # reach for).  The renaming must skip both.
        mapping = decomposition()

        def compute(instance):
            return instance.union(
                Instance.build({"P": [(Null("fresh"), "x", "y")]})
            )

        seed = Instance.build({"P": [(Null("a"), "s", Variable("v"))]})
        direct = cached_chase_result(mapping, seed, compute)  # populate
        clashing = Instance.build(
            {"P": [(Null("fresh"), "s", Variable("N0"))]}
        )
        result = cached_chase_result(mapping, clashing, compute)
        domain = result.active_domain()
        # the caller's own terms survive untouched
        assert Null("fresh") in domain
        assert Variable("N0") in domain
        # the chase-invented null was renamed past BOTH taken names
        assert Null("N1") in domain
        assert Null("N0") not in domain
        assert len(result.nulls()) == 2
        # and the translation is isomorphic to the seeded computation
        # (a genuine chase on `clashing` would also invent a null
        # distinct from the caller's "fresh" — which is the collision
        # the renaming exists to preserve)
        assert canonical_key(result) == canonical_key(direct)

    def test_distinct_mappings_do_not_share_entries(self):
        from repro.catalog import projection

        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        key_one = (mapping_key(decomposition()), canonical_key(seed))
        key_two = (mapping_key(projection()), canonical_key(seed))
        assert key_one != key_two

    def test_hit_counters_advance(self):
        mapping = decomposition()
        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        compute = lambda instance: instance  # noqa: E731
        before = chase_cache.stats()
        cached_chase_result(mapping, seed, compute)
        cached_chase_result(mapping, seed, compute)
        after = chase_cache.stats()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1

"""``materialize`` memoizes in the engine's derived-mapping tier."""

from repro.algebra.evaluate import materialize
from repro.algebra.expr import parse_expression
from repro.engine import reset_all_caches, resize_caches
from repro.engine.cache import derived_cache

JOIN = "compose(Decomposition, Decomposition')"
SPLIT = "compose(Decomposition, Decomposition'')"


class TestMaterializeMemo:
    def test_a_repeat_hits_the_derived_tier(self):
        reset_all_caches()
        first = materialize(parse_expression(JOIN))
        assert materialize(parse_expression(JOIN)) is first
        stats = derived_cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_a_leaf_is_its_own_mapping_and_no_entry(self):
        reset_all_caches()
        leaf = parse_expression("Decomposition")
        assert materialize(leaf) is leaf.mapping
        assert derived_cache.stats().size == 0

    def test_reset_clears_the_tier_and_cache_size_bounds_it(self):
        reset_all_caches()
        first = materialize(parse_expression(JOIN))
        reset_all_caches()
        assert derived_cache.stats().size == 0
        assert materialize(parse_expression(JOIN)) is not first
        previous = resize_caches(1)
        try:
            materialize(parse_expression(SPLIT))
            assert derived_cache.stats().size == 1
            assert derived_cache.stats().evictions == 1
        finally:
            resize_caches(previous)

"""``materialize`` memoizes in the engine's derived-mapping tier."""

from repro.algebra.evaluate import materialize
from repro.algebra.expr import default_resolver, parse_expression
from repro.core.mapping import SchemaMapping
from repro.datamodel.schemas import Schema
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

    def test_a_content_equal_twin_over_another_source_is_a_miss(self):
        # Wide has Decomposition's dependencies, so the two share a
        # mapping_key; the composed mapping's source schema and name
        # come from the leaf, so the memo must tell them apart
        reset_all_caches()
        table = default_resolver()
        decomposition = table["Decomposition"]
        wide = SchemaMapping(
            Schema.of([("P", 3), ("Z", 1)]),
            decomposition.target,
            decomposition.dependencies,
            name="Wide",
        )
        table["Wide"] = wide
        join = materialize(parse_expression(JOIN, table))
        twin = materialize(parse_expression("compose(Wide, Decomposition')", table))
        assert join.source == decomposition.source
        assert twin.source == wide.source
        assert twin.name == "Wide∘Decomposition'"
        assert twin.dependencies == join.dependencies

    def test_a_renamed_leaf_is_a_miss(self):
        reset_all_caches()
        table = default_resolver()
        decomposition = table["Decomposition"]
        table["Split"] = SchemaMapping(
            decomposition.source,
            decomposition.target,
            decomposition.dependencies,
            name="Split",
        )
        materialize(parse_expression(JOIN, table))
        renamed = materialize(parse_expression("compose(Split, Decomposition')", table))
        assert renamed.name == "Split∘Decomposition'"

"""Tests pinning the catalog to the paper's definitions."""

from repro.catalog import (
    all_catalog_mappings,
    decomposition,
    decomposition_quasi_inverse_join,
    decomposition_quasi_inverse_split,
    example_3_10_witnesses,
    example_4_5,
    example_5_4,
    figure_1_instance,
    projection,
    projection_quasi_inverse,
    prop_3_12,
    thm_4_10,
    union_mapping,
    union_quasi_inverse,
)


class TestShapes:
    def test_every_mapping_is_well_formed(self):
        for mapping in all_catalog_mappings():
            assert mapping.is_tgd_mapping()
            assert mapping.source.is_disjoint_from(mapping.target)
            assert mapping.name

    def test_lav_members(self):
        lav = {m.name for m in all_catalog_mappings() if m.is_lav()}
        assert lav == {
            "Projection",
            "Union",
            "Decomposition",
            "Example4.5",
            "Thm4.8",
            "Thm4.9",
            "Thm4.11",
        }

    def test_full_members(self):
        full = {m.name for m in all_catalog_mappings() if m.is_full()}
        assert full == {
            "Projection",
            "Union",
            "Decomposition",
            "Prop3.12",
            "Thm4.9",
            "Thm4.10",
            "Thm4.11",
            "UniqueNotSubset",
        }

    def test_dependency_counts(self):
        assert len(projection().dependencies) == 1
        assert len(union_mapping().dependencies) == 2
        assert len(decomposition().dependencies) == 1
        assert len(example_4_5().dependencies) == 4
        assert len(thm_4_10().dependencies) == 8
        assert len(example_5_4().dependencies) == 3

    def test_reverse_mappings_point_backwards(self):
        pairs = [
            (projection(), projection_quasi_inverse()),
            (union_mapping(), union_quasi_inverse()),
            (decomposition(), decomposition_quasi_inverse_join()),
            (decomposition(), decomposition_quasi_inverse_split()),
        ]
        for forward, backward in pairs:
            assert backward.source == forward.target
            assert backward.target == forward.source


class TestInstances:
    def test_figure_1_instance(self):
        instance = figure_1_instance()
        assert len(instance) == 2
        assert instance.is_ground()

    def test_example_3_10_witnesses_differ_by_one_fact(self):
        left, right = example_3_10_witnesses()
        assert left.issubset(right)
        assert len(right) - len(left) == 1

    def test_prop_3_12_schemas(self):
        mapping = prop_3_12()
        assert mapping.source.arity("E") == 2
        assert mapping.target.arity("F") == 2
        assert mapping.target.arity("M") == 1

"""Tests pinning the catalog to the paper's definitions."""

import threading
import time

import pytest

from repro.catalog import (
    all_catalog_mappings,
    catalog_by_name,
    decomposition,
    decomposition_quasi_inverse_join,
    decomposition_quasi_inverse_split,
    example_3_10_witnesses,
    example_4_5,
    example_5_4,
    figure_1_instance,
    named_mappings,
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


class TestSharedTables:
    def test_tables_hold_the_catalog_and_its_named_inverses(self):
        assert set(catalog_by_name()) == {m.name for m in all_catalog_mappings()}
        inverses = {"Projection'", "Union'", "Decomposition'", "Decomposition''", "Thm4.8'"}
        assert set(named_mappings()) == set(catalog_by_name()) | inverses
        for name, mapping in catalog_by_name().items():
            assert named_mappings()[name] is mapping
            assert mapping.name == name

    def test_shared_objects_equal_fresh_constructions(self):
        assert catalog_by_name()["Projection"] == projection()
        assert catalog_by_name()["Example5.4"] == example_5_4()
        assert named_mappings()["Union'"] == union_quasi_inverse()

    def test_tables_are_read_only(self):
        with pytest.raises(TypeError):
            catalog_by_name()["Projection"] = union_mapping()
        with pytest.raises(TypeError):
            named_mappings()["Extra"] = union_mapping()

    def test_concurrent_first_lookups_see_one_object_per_name(self, monkeypatch):
        import repro.catalog.mappings as catalog_module

        build = catalog_module.all_catalog_mappings

        def slow_build():
            time.sleep(0.05)  # widen the window two builders could race in
            return build()

        monkeypatch.setattr(catalog_module, "_SHARED", None)
        monkeypatch.setattr(catalog_module, "all_catalog_mappings", slow_build)
        barrier = threading.Barrier(4, timeout=10)
        seen = []

        def lookup():
            barrier.wait()
            seen.append(catalog_by_name()["Decomposition"])

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 4
        assert all(mapping is seen[0] for mapping in seen)

"""Unit tests for classification and invertibility analysis."""

from repro.analysis import classify_mapping, invertibility_report
from repro.catalog import (
    decomposition,
    example_5_4,
    projection,
    prop_3_12,
    thm_4_9,
    union_mapping,
)
from repro.workloads import instance_universe


class TestClassification:
    def test_projection_profile(self):
        profile = classify_mapping(projection())
        assert profile.is_lav and profile.is_gav and profile.is_full
        assert profile.n_dependencies == 1

    def test_decomposition_is_lav_not_gav(self):
        profile = classify_mapping(decomposition())
        assert profile.is_lav and not profile.is_gav

    def test_prop_3_12_is_neither(self):
        profile = classify_mapping(prop_3_12())
        assert profile.is_full and not profile.is_lav and not profile.is_gav

    def test_example_5_4_is_plain_tgds(self):
        profile = classify_mapping(example_5_4())
        assert profile.is_tgd and not profile.is_full and not profile.is_lav

    def test_describe_mentions_tags(self):
        assert "LAV" in classify_mapping(decomposition()).describe()
        assert "full" in classify_mapping(prop_3_12()).describe()


class TestInvertibilityReport:
    def test_projection_verdict(self):
        universe = instance_universe(projection().source, ["a", "b"], max_facts=1)
        report = invertibility_report(projection(), universe)
        assert report.certainly_not_invertible
        assert report.certainly_quasi_invertible
        assert not report.certainly_not_quasi_invertible
        assert "quasi-invertible" in report.verdict()

    def test_invertible_example_passes_everything(self):
        mapping = example_5_4()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        report = invertibility_report(mapping, universe)
        assert report.constant_propagation
        assert report.unique_solutions
        assert report.quasi_subset_property.holds
        assert report.verdict() == "all bounded checks pass"

    def test_unique_solutions_witness_surfaces(self):
        universe = instance_universe(union_mapping().source, ["a"], max_facts=1)
        report = invertibility_report(union_mapping(), universe)
        assert report.unique_solutions_witness is not None

    def test_full_flag_propagates(self):
        universe = instance_universe(thm_4_9().source, ["a"], max_facts=1)
        report = invertibility_report(thm_4_9(), universe)
        assert report.is_full and report.is_lav

"""Unit tests for soundness, faithfulness, and recovery (Section 6)."""

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    decomposition_quasi_inverse_split,
    figure_1_instance,
    projection,
    projection_quasi_inverse,
    union_mapping,
    union_quasi_inverse,
)
from repro.core.mapping import SchemaMapping, data_exchange_equivalent
from repro.datamodel.instances import Instance
from repro.dataexchange.recovery import (
    analyze_round_trip,
    faithful_on,
    is_faithful,
    is_sound,
    recover,
    sound_on,
)


class TestSoundness:
    def test_paper_quasi_inverses_are_sound(self):
        source = figure_1_instance()
        for reverse in (
            decomposition_quasi_inverse_join(),
            decomposition_quasi_inverse_split(),
        ):
            assert is_sound(decomposition(), reverse, source)

    def test_fact_inventing_reverse_is_unsound(self):
        # Recovering P facts with a constant in the wrong position
        # makes the re-exchange invent target facts outside U.
        bad = SchemaMapping.from_text(
            decomposition().target,
            decomposition().source,
            "Q(x, y) -> P(y, x, z)",
        )
        assert not is_sound(decomposition(), bad, figure_1_instance())

    def test_sound_on_reports_violators(self):
        bad = SchemaMapping.from_text(
            decomposition().target,
            decomposition().source,
            "Q(x, y) -> P(y, x, z)",
        )
        ok, violators = sound_on(decomposition(), bad, [figure_1_instance()])
        assert not ok and violators == (figure_1_instance(),)


class TestFaithfulness:
    def test_figure_1_reverses_are_faithful(self):
        source = figure_1_instance()
        for reverse in (
            decomposition_quasi_inverse_join(),
            decomposition_quasi_inverse_split(),
        ):
            report = analyze_round_trip(decomposition(), reverse, source)
            assert report.faithful and report.sound
            assert report.faithful_index is not None

    def test_partial_reverse_is_sound_but_not_faithful(self):
        partial = SchemaMapping.from_text(
            decomposition().target,
            decomposition().source,
            "Q(x, y) -> P(x, y, z)",
        )
        source = Instance.build({"P": [("a", "b", "c")]})
        assert is_sound(decomposition(), partial, source)
        assert not is_faithful(decomposition(), partial, source)

    def test_faithful_on_aggregates(self):
        sources = [
            Instance.build({"P": [("a", "b", "c")]}),
            figure_1_instance(),
        ]
        ok, violators = faithful_on(
            decomposition(), decomposition_quasi_inverse_join(), sources
        )
        assert ok and not violators

    def test_projection_quasi_inverse_faithful(self):
        source = Instance.build({"P": [("a", "b"), ("c", "d")]})
        assert is_faithful(projection(), projection_quasi_inverse(), source)


class TestRecover:
    def test_recovers_an_equivalent_ground_instance(self):
        source = figure_1_instance()
        recovered = recover(
            decomposition(), decomposition_quasi_inverse_join(), source
        )
        assert recovered is not None
        assert recovered.is_ground()
        assert data_exchange_equivalent(decomposition(), source, recovered)

    def test_recovered_instance_may_carry_nulls(self):
        source = figure_1_instance()
        recovered = recover(
            decomposition(), decomposition_quasi_inverse_split(), source
        )
        assert recovered is not None
        assert recovered.nulls()

    def test_recover_returns_none_when_unfaithful(self):
        partial = SchemaMapping.from_text(
            decomposition().target,
            decomposition().source,
            "Q(x, y) -> P(x, y, z)",
        )
        source = Instance.build({"P": [("a", "b", "c")]})
        assert recover(decomposition(), partial, source) is None

    def test_recover_picks_a_branch_for_disjunctive_reverses(self):
        source = Instance.build({"P": [("a",)], "Q": [("b",)]})
        recovered = recover(union_mapping(), union_quasi_inverse(), source)
        assert recovered is not None
        assert data_exchange_equivalent(union_mapping(), source, recovered)

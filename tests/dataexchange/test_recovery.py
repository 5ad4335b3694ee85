"""Unit tests for soundness, faithfulness, and recovery (Section 6)."""

import importlib

import pytest

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
from repro.datamodel.schemas import Schema, SchemaError
from repro.dataexchange.recovery import (
    analyze_round_trip,
    faithful_on,
    is_faithful,
    is_sound,
    recover,
    sound_on,
)
from repro.engine import Budget, reset_all_caches
from repro.errors import ChaseError
from repro.workloads import instance_universe

# repro.dataexchange re-exports names that shadow its submodules.
exchange_module = importlib.import_module("repro.dataexchange.exchange")


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


def _unsound_decomposition_reverse() -> SchemaMapping:
    return SchemaMapping.from_text(
        decomposition().target,
        decomposition().source,
        "Q(x, y) -> P(y, x, z)",
        name="Bad",
    )


class TestRoundTripVerdictMemo:
    """A round-trip verdict lands in the verdict cache, keyed by both
    mappings' content keys and source schemas and the instance's
    facts; a ``faithful_on`` sweep reuses a ``sound_on`` sweep."""

    @staticmethod
    def _count_reverse_chases(monkeypatch):
        calls = []
        real = exchange_module.disjunctive_chase

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(exchange_module, "disjunctive_chase", counting)
        return calls

    @pytest.mark.parametrize(
        "reverse",
        (
            decomposition_quasi_inverse_join,
            decomposition_quasi_inverse_split,
            _unsound_decomposition_reverse,
        ),
    )
    def test_faithful_on_reuses_the_sound_on_sweep(self, monkeypatch, reverse):
        calls = self._count_reverse_chases(monkeypatch)
        mapping = decomposition()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        reset_all_caches()
        sound = sound_on(mapping, reverse(), universe, workers=1)
        assert len(calls) == len(universe)
        faithful = faithful_on(mapping, reverse(), universe, workers=1)
        assert len(calls) == len(universe)
        reset_all_caches()
        for warm, check in ((sound, sound_on), (faithful, faithful_on)):
            cold = check(mapping, reverse(), universe, workers=1)
            assert (warm.ok, warm.violators) == (cold.ok, cold.violators)

    def test_an_instance_outside_the_source_raises_after_a_wider_twin(self):
        mapping = projection()
        wider = SchemaMapping(
            mapping.source.augment("Z", 1),
            mapping.target,
            mapping.dependencies,
            name=mapping.name,
        )
        outside = Instance.build({"P": [("a", "b")], "Z": [("c",)]})
        reset_all_caches()
        assert sound_on(wider, projection_quasi_inverse(), [outside]).ok
        with pytest.raises(SchemaError):
            sound_on(mapping, projection_quasi_inverse(), [outside])

    def test_a_reverse_that_cannot_read_the_export_raises_after_a_wider_twin(self):
        mapping = decomposition()
        narrow = SchemaMapping.from_text(
            Schema.of({"Q": 2}), mapping.source, "Q(x, y) -> P(x, y, z)"
        )
        wider = SchemaMapping(mapping.target, mapping.source, narrow.dependencies)
        reset_all_caches()
        sound_on(mapping, wider, [figure_1_instance()])
        with pytest.raises(SchemaError):
            sound_on(mapping, narrow, [figure_1_instance()])

    def test_a_budget_trip_mid_round_trip_caches_nothing(self, monkeypatch):
        calls = self._count_reverse_chases(monkeypatch)
        mapping, reverse = projection(), projection_quasi_inverse()
        instance = Instance.build({"P": [("a", "b")]})
        reset_all_caches()
        partial = sound_on(mapping, reverse, [instance], budget=Budget(max_chase_steps=1))
        assert partial.coverage == "budget" and partial.instances_checked == 0
        cut_short = len(calls)
        full = sound_on(mapping, reverse, [instance])
        assert full.ok and full.coverage == "exhaustive"
        assert len(calls) == cut_short + 1

    def test_a_chase_error_mid_round_trip_caches_nothing(self, monkeypatch):
        real = exchange_module.disjunctive_chase

        def failing(*args, **kwargs):
            raise ChaseError("injected")

        mapping, reverse = projection(), projection_quasi_inverse()
        instance = Instance.build({"P": [("a", "b")]})
        reset_all_caches()
        monkeypatch.setattr(exchange_module, "disjunctive_chase", failing)
        with pytest.raises(ChaseError):
            faithful_on(mapping, reverse, [instance])
        monkeypatch.setattr(exchange_module, "disjunctive_chase", real)
        calls = self._count_reverse_chases(monkeypatch)
        assert faithful_on(mapping, reverse, [instance]).ok
        assert len(calls) == 1

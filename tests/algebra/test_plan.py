"""Plan selection: the shape rule, the materialize mode and its
fallback, and explanations."""

import os

import pytest

from repro.algebra.expr import Compose, MappingAtom, parse_expression
from repro.algebra.plan import (
    PLAN_MODES,
    default_plan_mode,
    plan_expression,
    resolve_plan_mode,
)
from repro.algebra.rewrite import normalize
from repro.algebra.scenarios import fan_in_chain_expression
from repro.algebra.sweeps import check_expression
from repro.catalog.mappings import union_mapping, union_quasi_inverse
from repro.core.mapping import MappingError
from repro.engine.context import set_defaults
from repro.engine.instrumentation import engine_stats, reset_engine_stats


class TestModes:
    def test_default_mode_follows_set_defaults(self):
        previous = set_defaults(plan="materialize")
        try:
            assert default_plan_mode() == "materialize"
            assert resolve_plan_mode(None) == "materialize"
        finally:
            set_defaults(**previous)
        assert default_plan_mode() == previous["plan"]

    def test_setting_an_unknown_default_mode_is_refused(self):
        before = default_plan_mode()
        with pytest.raises(ValueError, match="plan"):
            set_defaults(plan="bogus")
        assert default_plan_mode() == before

    def test_resolve_rejects_unknown(self):
        with pytest.raises(MappingError, match="unknown plan mode"):
            resolve_plan_mode("bogus")
        for mode in PLAN_MODES:
            assert resolve_plan_mode(mode) == mode

    def test_membership_is_not_a_mode(self):
        # auto runs membership wherever membership applies
        assert PLAN_MODES == ("auto", "materialize")
        with pytest.raises(MappingError, match="unknown plan mode"):
            resolve_plan_mode("membership")

    def test_env_isolated(self):
        # plan mode lookups never mutate the environment
        before = dict(os.environ)
        resolve_plan_mode(None)
        assert dict(os.environ) == before


class TestSweepKinds:
    def test_auto_picks_staged_for_blowup(self):
        expr, _ = normalize(fan_in_chain_expression(3))
        plan = plan_expression(expr, "unique", mode="auto")
        assert plan.strategy == "staged"

    def test_auto_stages_every_sweep_kind_alike(self):
        # the rule reads the expression's shape, not which sweep runs
        expr, _ = normalize(fan_in_chain_expression(3))
        for kind in ("subset", "invertibility"):
            plan = plan_expression(expr, kind, mode="auto")
            assert plan.strategy == "staged"
            assert plan.reason.startswith("compose at the root")

    def test_materialize_mode_is_respected(self):
        expr, _ = normalize(fan_in_chain_expression(3))
        plan = plan_expression(expr, "unique", mode="materialize")
        assert plan.strategy == "materialize"

    def test_plain_atom_materializes_under_auto(self):
        expr = parse_expression("Decomposition")
        plan = plan_expression(expr, "unique", mode="auto")
        assert plan.strategy == "materialize"
        assert plan.reason.startswith("no compose at the root")

    def test_a_composition_no_strategy_runs_is_refused(self):
        # the disjunctive second leg neither stages nor composes
        expr = Compose(
            first=MappingAtom(mapping=union_mapping()),
            second=MappingAtom(mapping=union_quasi_inverse()),
        )
        with pytest.raises(MappingError, match="no feasible evaluation strategy"):
            plan_expression(expr, "unique", mode="auto")


class TestPairKinds:
    def test_auto_on_inverse_pair(self):
        expr = parse_expression("compose(Decomposition, Decomposition')")
        plan = plan_expression(expr, "inverse", mode="auto")
        assert plan.strategy == "membership"

    def test_materialize_mode_forces_mingen_on_an_inverse_pair(self):
        expr = parse_expression("compose(Decomposition, Decomposition')")
        plan = plan_expression(expr, "inverse", mode="materialize")
        assert plan.strategy == "materialize"
        assert plan.reason == "plan mode materialize forces MinGen"
        assert plan.notes == ()

    def test_disjunctive_reverse_falls_back(self):
        expr = Compose(
            first=MappingAtom(mapping=union_mapping()),
            second=MappingAtom(mapping=union_quasi_inverse()),
        )
        plan = plan_expression(expr, "inverse", mode="materialize")
        assert plan.strategy == "membership"
        assert any("infeasible" in note for note in plan.notes)

    def test_the_plan_does_not_depend_on_process_history(self):
        # a planner calibrated by the process's own timings picked
        # materialize here first, and membership after another check
        reset_engine_stats()

        def projection_plan():
            return check_expression(
                "Projection", "inverse", reverse="Projection'", max_facts=2
            ).plan.strategy

        first = projection_plan()
        check_expression(
            "Decomposition", "inverse", reverse="Decomposition'", max_facts=2
        )
        assert projection_plan() == first


class TestInstrumentationAndExplain:
    def test_chosen_strategy_bumps_counter(self):
        stats = engine_stats()
        expr, _ = normalize(fan_in_chain_expression(3))
        before = stats.counter("algebra_plan_staged")
        plan_expression(expr, "unique", mode="auto")
        assert stats.counter("algebra_plan_staged") == before + 1

    def test_explain_mentions_choice_and_reason(self):
        expr, trace = normalize(fan_in_chain_expression(3))
        plan = plan_expression(expr, "unique", mode="auto", rewrite_trace=trace)
        text = plan.explain({"measured_seconds": 0.25})
        assert "strategy=staged" in text
        assert "\n  reason: compose at the root" in text
        assert "estimates" not in text
        assert "actuals:" in text

    def test_explain_shows_a_fallback_under_the_rule_it_fell_back_to(self):
        expr = Compose(
            first=MappingAtom(mapping=union_mapping()),
            second=MappingAtom(mapping=union_quasi_inverse()),
        )
        text = plan_expression(expr, "inverse", mode="materialize").explain()
        assert "plan: mode=materialize strategy=membership kind=inverse" in text
        lines = text.splitlines()
        reason = lines.index(
            "  reason: the inverse kind decides each pair by membership"
        )
        assert lines[reason + 1].startswith(
            "  note: preferred strategy 'materialize' infeasible"
        )
        assert "actuals:" not in text

    def test_unknown_kind_rejected(self):
        expr = parse_expression("Decomposition")
        with pytest.raises(MappingError, match="unknown check kind"):
            plan_expression(expr, "bogus")

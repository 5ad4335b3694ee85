"""Plan selection: mode preferences, fallbacks, and explanations."""

import os

import pytest

from repro.algebra.cost import CostModel
from repro.algebra.expr import Compose, MappingAtom, parse_expression
from repro.algebra.plan import (
    PLAN_MODES,
    default_plan_mode,
    plan_expression,
    resolve_plan_mode,
)
from repro.algebra.rewrite import normalize
from repro.algebra.scenarios import fan_in_chain_expression
from repro.catalog.mappings import union_mapping, union_quasi_inverse
from repro.core.mapping import MappingError
from repro.engine.context import set_defaults
from repro.engine.instrumentation import engine_stats


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


class TestSweepKinds:
    def test_auto_picks_staged_for_blowup(self):
        expr, _ = normalize(fan_in_chain_expression(3))
        plan = plan_expression(expr, "unique", mode="auto", universe_size=25)
        assert plan.strategy == "staged"

    def test_materialize_mode_is_respected(self):
        expr, _ = normalize(fan_in_chain_expression(3))
        plan = plan_expression(
            expr, "unique", mode="materialize", universe_size=25
        )
        assert plan.strategy == "materialize"

    def test_membership_mode_means_staged_for_sweeps(self):
        expr, _ = normalize(fan_in_chain_expression(3))
        plan = plan_expression(
            expr, "subset", mode="membership", universe_size=25
        )
        assert plan.strategy == "staged"

    def test_plain_atom_materializes_under_auto(self):
        expr = parse_expression("Decomposition")
        plan = plan_expression(expr, "unique", mode="auto", universe_size=9)
        assert plan.strategy == "materialize"


class TestPairKinds:
    def test_auto_on_inverse_pair(self):
        expr = parse_expression("compose(Decomposition, Decomposition')")
        plan = plan_expression(
            expr, "inverse", mode="auto", universe_size=9, pair_checks=81
        )
        assert plan.strategy in ("materialize", "membership")

    def test_disjunctive_reverse_falls_back(self):
        expr = Compose(
            first=MappingAtom(mapping=union_mapping()),
            second=MappingAtom(mapping=union_quasi_inverse()),
        )
        plan = plan_expression(
            expr,
            "inverse",
            mode="materialize",
            universe_size=3,
            pair_checks=9,
        )
        assert plan.strategy == "membership"
        assert any("infeasible" in note for note in plan.notes)


class TestInstrumentationAndExplain:
    def test_chosen_strategy_bumps_counter(self):
        stats = engine_stats()
        expr, _ = normalize(fan_in_chain_expression(3))
        before = stats.counter("algebra_plan_staged")
        plan_expression(expr, "unique", mode="auto", universe_size=25)
        assert stats.counter("algebra_plan_staged") == before + 1

    def test_explain_mentions_choice_and_estimates(self):
        expr, trace = normalize(fan_in_chain_expression(3))
        plan = plan_expression(
            expr,
            "unique",
            mode="auto",
            universe_size=25,
            rewrite_trace=trace,
        )
        text = plan.explain({"measured_seconds": 0.25})
        assert "strategy=staged" in text
        assert "materialize:" in text
        assert "* staged:" in text
        assert "actuals:" in text

    def test_unknown_kind_rejected(self):
        expr = parse_expression("Decomposition")
        with pytest.raises(MappingError, match="unknown check kind"):
            plan_expression(expr, "bogus")


class TestCostModel:
    def test_calibration_labels(self):
        model = CostModel.calibrated()
        assert set(model.calibrations) == {
            "chase",
            "homomorphism",
            "mingen",
            "membership",
        }

    def test_blowup_proxy_orders_widths(self):
        model = CostModel()
        three = model.estimate_materialize(
            normalize(fan_in_chain_expression(3))[0], 25, 0
        )
        four = model.estimate_materialize(
            normalize(fan_in_chain_expression(4))[0], 25, 0
        )
        assert four.total > three.total

    def test_env_isolated(self):
        # plan mode lookups never mutate the environment
        before = dict(os.environ)
        resolve_plan_mode(None)
        assert dict(os.environ) == before

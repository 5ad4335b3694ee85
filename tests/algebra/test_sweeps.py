"""Plan-directed sweeps: staged evaluation, governance, and the
service/CLI integration of the algebra kind.  That every plan renders
the same report is a row of the parity harness
(``tests/test_parity.py``)."""

import pytest

from repro.algebra.evaluate import (
    ExpressionPairTest,
    expression_membership,
    materialize,
    staged_mapping,
)
from repro.algebra.expr import Compose, MappingAtom, parse_expression
from repro.algebra.scenarios import fan_in_chain_expression
from repro.algebra.sweeps import check_expression
from repro.catalog.mappings import projection, projection_quasi_inverse
from repro.core.mapping import StagedMapping, is_solution, universal_solution
from repro.datamodel.instances import Instance
from repro.engine import reset_all_caches
from repro.engine.cache import mapping_key
from repro.errors import CompositionBudgetError

WIDTH = 3


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_all_caches()
    yield
    reset_all_caches()


class TestStagedMapping:
    def test_staged_equals_materialized_chase(self):
        expr, = [fan_in_chain_expression(WIDTH)]
        staged = staged_mapping(expr)
        concrete = materialize(expr)
        assert isinstance(staged, StagedMapping)
        source = Instance.build({"P1": [("a", "b")], "Q2": [("b", "a")]})
        assert (
            universal_solution(staged, source).facts
            == universal_solution(concrete, source).facts
        )

    def test_staged_mapping_key_is_content_addressed(self):
        one = staged_mapping(fan_in_chain_expression(WIDTH))
        two = staged_mapping(fan_in_chain_expression(WIDTH))
        assert one is not two
        assert mapping_key(one) == mapping_key(two)

    def test_is_solution_against_staged(self):
        expr = fan_in_chain_expression(WIDTH)
        staged = staged_mapping(expr)
        source = Instance.build(
            {f"P{i}": [("a", "a")] for i in range(1, WIDTH + 1)}
        )
        solution = universal_solution(staged, source)
        assert is_solution(materialize(expr), source, solution)


class TestExpressionMembership:
    def test_matches_materialized_model_check(self):
        expr = parse_expression("compose(Decomposition, Decomposition')")
        concrete = materialize(expr)
        from repro.workloads import power_instances

        universe = list(
            power_instances(expr.source, ("a", "b"), max_facts=1)
        )
        for left in universe[:4]:
            for right in universe[:4]:
                assert expression_membership(
                    expr, left, right
                ) == is_solution(concrete, left, right)

    def test_union_is_conjunction(self):
        from repro.algebra.expr import UnionOf

        atom = parse_expression("Projection")
        expr = UnionOf(left=atom, right=parse_expression("Projection"))
        left = Instance.build({"P": [("a", "b")]})
        right = Instance.build({"Q": [("a",)]})
        assert expression_membership(expr, left, right)


class TestGovernedMembershipBudget:
    """Satellite: max_nulls trips in membership plans degrade coverage
    through the ReproError governance instead of crashing."""

    def _expr(self):
        return Compose(
            first=MappingAtom(mapping=projection_quasi_inverse()),
            second=MappingAtom(mapping=projection()),
        )

    def test_raw_test_raises_budget_error(self):
        from repro.core.framework import is_inverse
        from repro.workloads import power_instances

        fwd = projection_quasi_inverse()
        universe = list(
            power_instances(fwd.source, ("a", "b"), max_facts=1)
        )
        with pytest.raises(CompositionBudgetError):
            is_inverse(
                fwd,
                projection(),
                universe,
                max_nulls=0,
                composition_test=ExpressionPairTest(expr=self._expr()),
            )

    def test_membership_plan_degrades_to_partial_coverage(self):
        report = check_expression(
            "Projection'",
            "inverse",
            reverse="Projection",
            plan="auto",
            max_nulls=0,
        )
        assert report.coverage == "budget"

    def test_service_maps_trip_to_partial_state(self):
        from repro.service.protocol import STATE_PARTIAL, normalize_job

        spec = normalize_job(
            {
                "kind": "algebra",
                "expression": "Projection'",
                "check": "inverse",
                "reverse": "Projection",
                "plan": "auto",
            }
        )
        # the service has no max_nulls knob; exercise the degrade path
        # through check_expression's report instead
        report = check_expression(
            spec["expression"],
            spec["check"],
            reverse=spec["reverse"],
            plan=spec["plan"],
            max_nulls=0,
        )
        assert report.coverage == "budget"
        assert STATE_PARTIAL == "partial"


class TestServiceIntegration:
    def test_normalize_and_execute_algebra_job(self):
        from repro.service.jobs import execute_job
        from repro.service.protocol import job_key, normalize_job

        payload = {
            "kind": "algebra",
            "expression": "compose( Decomposition , Decomposition' )",
            "check": "unique",
            "plan": "auto",
        }
        spec = normalize_job(payload)
        assert spec["expression"] == "compose(Decomposition, Decomposition')"
        respaced = normalize_job(
            dict(payload, expression="compose(Decomposition,Decomposition')")
        )
        assert job_key(spec) == job_key(respaced)
        outcome = execute_job(spec)
        assert outcome.state == "done"
        assert "unique solutions" in outcome.rendering

    def test_explain_plan_appends_plan_section(self):
        from repro.service.jobs import execute_job
        from repro.service.protocol import normalize_job

        spec = normalize_job(
            {
                "kind": "algebra",
                "expression": "compose(Decomposition, Decomposition')",
                "check": "unique",
                "explain_plan": True,
            }
        )
        outcome = execute_job(spec)
        assert "plan: mode=" in outcome.rendering
        assert "reason: compose at the root" in outcome.rendering

    def test_submit_time_rejections(self):
        from repro.errors import ServiceProtocolError
        from repro.service.protocol import normalize_job

        with pytest.raises(ServiceProtocolError, match="does not parse"):
            normalize_job({"kind": "algebra", "expression": "compose(Zed, Q)"})
        with pytest.raises(ServiceProtocolError, match="unknown algebra check"):
            normalize_job(
                {"kind": "algebra", "expression": "Union", "check": "bogus"}
            )
        for dropped in ("bogus", "membership"):
            with pytest.raises(ServiceProtocolError, match="plan must be"):
                normalize_job(
                    {"kind": "algebra", "expression": "Union", "plan": dropped}
                )
        with pytest.raises(ServiceProtocolError, match="reverse"):
            normalize_job(
                {"kind": "algebra", "expression": "Union", "check": "inverse"}
            )


class TestCliIntegration:
    def test_check_algebra_exit_and_report(self, capsys):
        from repro.cli import main

        code = main(
            [
                "check",
                "algebra",
                "compose(Decomposition, Decomposition')",
                "--check",
                "unique",
                "--plan",
                "auto",
                "--explain-plan",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unique solutions" in out
        assert "plan: mode=auto" in out

    def test_plan_membership_is_a_usage_error(self, capsys):
        # auto runs membership wherever membership applies
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["check", "algebra", "Union", "--check", "subset", "--plan", "membership"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "--plan" in err and "'membership'" in err

    def test_plan_flag_sets_the_default_for_its_call(self, monkeypatch):
        import os

        import repro.service.jobs as jobs_module
        from repro.algebra.plan import default_plan_mode
        from repro.cli import main

        seen = []

        def probe(spec, checkpoint):
            seen.append(default_plan_mode())
            return "probed", True

        monkeypatch.setitem(jobs_module._EXECUTORS, "algebra", probe)
        before_mode, before_env = default_plan_mode(), dict(os.environ)
        code = main(
            [
                "check",
                "algebra",
                "compose(Decomposition, Decomposition')",
                "--check",
                "unique",
                "--plan",
                "materialize",
            ]
        )
        assert code == 0
        assert seen == ["materialize"]
        assert default_plan_mode() == before_mode
        assert dict(os.environ) == before_env

"""The unified fault plane: spec parsing, scheduling, and scoping.

Companion to ``test_faults.py`` (which exercises what happens *after*
a fault fires — recovery, budgets, partial verdicts): these tests pin
down the plane itself — every malformed spec shape raises
:class:`~repro.errors.FaultSpecError`, deterministic schedules replay,
and injections land on the engine counters.
"""

import pytest

from repro.engine import engine_stats, reset_engine_stats
from repro.engine.faults import (
    FAULT_POINTS,
    FaultPlane,
    FaultRule,
    active_plane,
    expire_rule,
    fault_scope,
    fire,
    parse_spec,
)
from repro.errors import FaultSpecError, ReproError


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_engine_stats()
    yield
    reset_engine_stats()


class TestParseSpec:
    def test_bare_point_always_fires(self):
        rules = parse_spec("store.read")
        rule = rules["store.read"]
        assert all(rule.decide() for _ in range(5))

    def test_at_fires_exactly_once(self):
        rule = parse_spec("store.read:at=3")["store.read"]
        assert [rule.decide() for _ in range(6)] == [
            False, False, True, False, False, False,
        ]

    def test_every_fires_periodically(self):
        rule = parse_spec("journal.flush:every=2")["journal.flush"]
        assert [rule.decide() for _ in range(6)] == [
            False, True, False, True, False, True,
        ]

    def test_after_fires_past_threshold(self):
        rule = parse_spec("store.write:after=2")["store.write"]
        assert [rule.decide() for _ in range(5)] == [
            False, False, True, True, True,
        ]

    def test_times_caps_injections(self):
        rule = parse_spec("store.read:times=2")["store.read"]
        assert [rule.decide() for _ in range(5)] == [
            True, True, False, False, False,
        ]

    def test_probability_schedule_is_deterministic(self):
        first = parse_spec("store.read:p=0.5,seed=7")["store.read"]
        second = parse_spec("store.read:p=0.5,seed=7")["store.read"]
        pattern = [first.decide() for _ in range(64)]
        assert pattern == [second.decide() for _ in range(64)]
        assert any(pattern) and not all(pattern)

    def test_seeds_decorrelate_points(self):
        rules = parse_spec("store.read:p=0.5,seed=7;store.write:p=0.5,seed=7")
        read = [rules["store.read"].decide() for _ in range(64)]
        write = [rules["store.write"].decide() for _ in range(64)]
        assert read != write  # same seed, different point, different stream

    def test_task_scoping_and_wildcard(self):
        rule = parse_spec("worker.kill:task=3")["worker.kill"]
        assert not rule.decide(1)
        assert not rule.decide(None)
        assert rule.decide(3)
        wildcard = parse_spec("worker.delay:task=*,seconds=0.5")["worker.delay"]
        assert wildcard.decide(0) and wildcard.decide(9)
        assert wildcard.seconds == 0.5

    def test_clauses_split_on_semicolons_and_newlines(self):
        rules = parse_spec("store.read:at=1\njournal.flush:every=3;  ")
        assert set(rules) == {"store.read", "journal.flush"}

    def test_later_clause_overrides_earlier_same_point(self):
        rules = parse_spec("store.read:at=1;store.read:at=9")
        assert rules["store.read"].at == 9

    @pytest.mark.parametrize(
        "spec",
        [
            "no.such.point",
            "store.red:at=1",  # typo'd point
            "store.read:bogus=1",  # unknown parameter
            "store.read:at",  # missing =value
            "store.read:at=",  # empty value
            "store.read:at=x",  # non-integer
            "store.read:at=0",  # at is 1-based
            "store.read:every=0",
            "store.read:times=0",
            "store.read:after=-1",
            "store.read:p=1.5",  # probability out of range
            "store.read:p=-0.1",
            "store.read:p=half",
            "worker.delay:seconds=-1",
            "worker.delay:seconds=soon",
            "worker.kill:task=first",
            "budget.expire:resource=disk",
            "store.read:at=1,every=2",  # conflicting triggers
            "store.read:p=0.5,after=3",
        ],
    )
    def test_malformed_specs_raise_fault_spec_error(self, spec):
        with pytest.raises(FaultSpecError):
            parse_spec(spec)

    def test_fault_spec_error_is_a_repro_error_with_context(self):
        with pytest.raises(FaultSpecError) as excinfo:
            parse_spec("store.read:p=2")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.context["clause"] == "store.read:p=2"
        assert "store.read:p=2" in str(excinfo.value)

    def test_unknown_point_error_lists_known_points(self):
        with pytest.raises(FaultSpecError) as excinfo:
            parse_spec("daemon.crash")
        message = str(excinfo.value)
        assert "daemon.kill" in message and "store.read" in message


class TestEnvPlane:
    def test_env_spec_builds_the_active_plane(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read:at=2")
        assert fire("store.read") is None
        assert fire("store.read") is not None
        assert fire("store.read") is None

    def test_env_change_rebuilds_and_resets_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read:at=1")
        assert fire("store.read") is not None
        monkeypatch.setenv("REPRO_FAULTS", "store.read:at=1;journal.flush")
        # rebuilt plane: occurrence counters start over
        assert fire("store.read") is not None

    def test_malformed_env_spec_raises_when_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read:p=nope")
        with pytest.raises(FaultSpecError):
            fire("store.read")

    def test_unknown_point_at_fire_is_a_key_error(self):
        with pytest.raises(KeyError):
            fire("not.a.point")

    def test_empty_env_means_no_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert not active_plane().rules

    def test_task_scoped_kill_fires_on_every_matching_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=5")
        plane = active_plane()
        rule = plane.rule("worker.kill")
        assert rule is not None and rule.task == 5
        assert plane.fire("worker.kill", index=4) is None
        assert plane.fire("worker.kill", index=5) is not None
        assert plane.fire("worker.kill", index=5) is not None

    def test_negative_kill_task_parses_but_never_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=-1")
        assert fire("worker.kill", index=0) is None

    def test_delay_task_from_env_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.delay:task=*,seconds=0.25")
        rule = active_plane().rule("worker.delay")
        assert rule is not None
        assert rule.task == "*" and rule.seconds == 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            "worker.kill:task=soon",
            "worker.delay:task=3,seconds=",  # seconds without a value
            "worker.delay:task=*,seconds=fast",
            "worker.delay:task=*,seconds=-1",
            "budget.expire:resource=instances,after",  # after without a value
            "budget.expire:resource=disk,after=3",
            "budget.expire:resource=instances,after=many",
        ],
    )
    def test_malformed_env_clauses_raise_when_consulted(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        with pytest.raises(FaultSpecError):
            active_plane()

    def test_later_env_clause_overrides_earlier_for_same_point(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=5;worker.kill:task=9")
        rule = active_plane().rule("worker.kill")
        assert rule is not None and rule.task == 9

    def test_env_clauses_for_different_points_combine(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=5;journal.flush:every=2")
        plane = active_plane()
        assert plane.rule("worker.kill") is not None
        assert plane.rule("journal.flush") is not None

    def test_expire_rule_from_env_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "budget.expire:resource=chase_steps,after=12")
        assert expire_rule() == ("chase_steps", 12)

    def test_expire_rule_default(self):
        assert expire_rule() == (None, 0)


class TestFaultScope:
    def test_scope_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read")
        with fault_scope(None):
            assert fire("store.read") is None
        assert fire("store.read") is not None

    def test_scope_accepts_mapping_form(self):
        with fault_scope({"worker.delay": {"task": "*", "seconds": 2.0}}):
            rule = fire("worker.delay", index=3)
            assert rule is not None and rule.seconds == 2.0

    def test_mapping_form_rejects_unknown_point(self):
        with pytest.raises(FaultSpecError):
            with fault_scope({"bogus.point": {}}):
                pass

    def test_scopes_nest(self):
        with fault_scope("store.read"):
            with fault_scope("store.write"):
                assert fire("store.read") is None
                assert fire("store.write") is not None
            assert fire("store.read") is not None

    def test_scope_replays_fresh_counters(self):
        spec = "store.read:at=1"
        for _ in range(3):
            with fault_scope(spec):
                assert fire("store.read") is not None
                assert fire("store.read") is None

    def test_injections_land_on_engine_counters(self):
        with fault_scope("store.read:at=1"):
            fire("store.read")
            fire("store.read")
        stats = engine_stats()
        assert stats.counter("faults_injected") == 1
        assert stats.counter("fault_store_read") == 1


class TestRegistry:
    def test_every_point_is_documented(self):
        for point, description in FAULT_POINTS.items():
            assert "." in point and description

    def test_plane_repr_and_rule_repr_are_stable(self):
        plane = FaultPlane({"store.read": FaultRule("store.read", at=2)})
        assert "store.read" in repr(plane)
        assert "at=2" in repr(plane.rules["store.read"])

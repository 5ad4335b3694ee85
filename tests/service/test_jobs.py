"""Job execution: every terminal outcome, and the shared rendering."""

import pytest

from repro.engine import fork_available, reset_all_caches
from repro.engine.budget import Budget, coverage_events, reset_coverage_events
from repro.service.jobs import budget_for, execute_job
from repro.service.protocol import normalize_job

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_registries():
    reset_coverage_events()
    yield
    reset_coverage_events()


def _spec(**payload):
    return normalize_job(payload)


class TestBudgetFor:
    def test_no_limits_no_budget(self):
        assert budget_for(_spec(kind="unique", mapping="Projection")) is None

    def test_spec_limits_win_over_default(self):
        budget = budget_for(
            _spec(kind="unique", mapping="Projection", deadline=1.5),
            default_deadline=60.0,
        )
        assert budget is not None and budget.deadline == 1.5

    def test_daemon_default_applies_when_spec_is_silent(self):
        budget = budget_for(
            _spec(kind="unique", mapping="Projection"), default_deadline=60.0
        )
        assert budget is not None and budget.deadline == 60.0


class TestTerminalOutcomes:
    def test_done(self):
        outcome = execute_job(_spec(kind="invertibility", mapping="Example5.4"))
        assert outcome.state == "done"
        assert outcome.exit_code == 0
        assert outcome.coverage == "exhaustive"
        assert "== check Example5.4: invertibility" in outcome.rendering
        assert "verdict: all bounded checks pass" in outcome.rendering

    def test_violated(self):
        outcome = execute_job(_spec(kind="unique", mapping="Projection"))
        assert outcome.state == "violated"
        assert outcome.exit_code == 1
        assert "VIOLATED" in outcome.rendering

    def test_violation_beats_degraded_coverage(self):
        """A violation found under a tripped budget is still a
        violation — exactly the CLI's exit-code semantics."""
        budget = Budget(max_instances=3)
        outcome = execute_job(
            _spec(kind="unique", mapping="Projection"), budget=budget
        )
        assert outcome.state in ("violated", "partial")
        if outcome.state == "violated":
            assert outcome.exit_code == 1

    def test_partial_on_budget_trip(self):
        reset_all_caches()
        outcome = execute_job(
            _spec(kind="subset", mapping="Decomposition", max_facts=2),
            budget=Budget(max_instances=4),
        )
        assert outcome.state == "partial"
        assert outcome.exit_code == 3
        assert outcome.coverage == "budget"
        assert outcome.coverage_events

    def test_faulted_rendering_on_engine_error(self, monkeypatch):
        from repro import errors

        def boom(*args, **kwargs):
            raise errors.ChaseError("synthetic chase failure")

        import repro.service.jobs as jobs_module

        monkeypatch.setitem(
            jobs_module._EXECUTORS, "unique", lambda spec, ckpt: boom()
        )
        outcome = execute_job(_spec(kind="unique", mapping="Projection"))
        assert outcome.state == "faulted"
        assert outcome.exit_code == 4
        assert outcome.rendering.startswith("error: ChaseError")

    @needs_fork
    def test_faulted_on_unrecovered_worker_death(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_KILL_TASK", "0")
        monkeypatch.setenv("REPRO_ON_FAULT", "raise")
        reset_all_caches()
        outcome = execute_job(
            _spec(kind="subset", mapping="Decomposition", max_facts=2, workers=2)
        )
        assert outcome.state == "faulted"
        assert outcome.exit_code == 4
        assert outcome.coverage == "faulted"

    def test_unknown_kind_raises(self):
        from repro.errors import ServiceProtocolError

        with pytest.raises(ServiceProtocolError):
            execute_job({"kind": "nonsense"})


class TestCoverageIsolation:
    def test_scope_keeps_events_out_of_the_ambient_registry(self):
        reset_coverage_events()
        outcome = execute_job(
            _spec(kind="subset", mapping="Decomposition", max_facts=2),
            budget=Budget(max_instances=4),
        )
        assert outcome.coverage_events
        assert coverage_events() == ()  # nothing leaked into this thread

    def test_concurrent_jobs_do_not_share_events(self):
        import threading

        outcomes = {}

        def run(name, budget):
            outcomes[name] = execute_job(
                _spec(kind="subset", mapping="Decomposition", max_facts=2),
                budget=budget,
            )

        reset_all_caches()
        tripped = threading.Thread(
            target=run, args=("tripped", Budget(max_instances=4))
        )
        clean = threading.Thread(target=run, args=("clean", None))
        tripped.start()
        clean.start()
        tripped.join()
        clean.join()
        assert outcomes["tripped"].state == "partial"
        assert outcomes["clean"].state == "done"
        assert outcomes["clean"].coverage == "exhaustive"
        assert not outcomes["clean"].coverage_events


class TestRoundtripJobs:
    def test_roundtrip_done_with_inline_mappings(self):
        copy = {
            "source": {"P": 2},
            "target": {"Q": 2},
            "dependencies": "P(x,y) -> Q(x,y)",
            "name": "copy",
        }
        back = {
            "source": {"Q": 2},
            "target": {"P": 2},
            "dependencies": "Q(x,y) -> P(x,y)",
            "name": "copy-back",
        }
        outcome = execute_job(
            _spec(kind="roundtrip", mapping=copy, reverse=back, max_facts=1)
        )
        assert outcome.state == "done"
        assert "sound: yes" in outcome.rendering
        assert "faithful: yes" in outcome.rendering


class TestSharedRendering:
    @pytest.mark.parametrize("kind", ["unique", "subset", "invertibility"])
    @pytest.mark.parametrize("name", ["Projection", "Decomposition"])
    def test_algebra_job_renders_like_the_plain_job(self, name, kind):
        # A bare mapping name is an algebra expression too; the two
        # job kinds must render one report byte for byte.
        plain = execute_job(_spec(kind=kind, mapping=name, max_facts=1))
        algebra = execute_job(
            _spec(kind="algebra", expression=name, check=kind, max_facts=1)
        )
        assert algebra.rendering == plain.rendering
        assert algebra.state == plain.state

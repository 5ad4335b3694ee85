"""Job execution: every terminal outcome, and the shared rendering."""

import pytest

from repro.engine import fork_available, reset_all_caches, set_defaults
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
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=0")
        reset_all_caches()
        previous = set_defaults(on_fault="raise")
        try:
            outcome = execute_job(
                _spec(kind="subset", mapping="Decomposition", max_facts=2, workers=2)
            )
        finally:
            set_defaults(**previous)
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


class TestExperimentOptions:
    """An experiment job runs under the engine options it carries."""

    def test_check_puts_the_engine_flags_in_the_payload(self):
        from repro.cli import build_parser
        from repro.service.protocol import build_payload

        argv = ["check", "experiment", "E12", "--max-instances", "1", "--backend", "sql"]
        assert build_payload(build_parser().parse_args(argv)) == {
            "kind": "experiment", "experiment": "E12", "max_instances": 1, "backend": "sql",
        }

    def test_the_options_reach_the_run(self):
        from repro.engine import engine_stats, reset_engine_stats

        spec = _spec(kind="experiment", experiment="E12", max_instances=1)
        assert execute_job(spec, budget=budget_for(spec)).exit_code == 3
        reset_engine_stats()
        assert execute_job(_spec(kind="experiment", experiment="E3", backend="sql")).exit_code == 0
        assert engine_stats().counter("sql_small_routed") > 0  # E3's chases reached sql

    def test_a_bad_option_is_refused_by_name(self):
        from repro.errors import ServiceProtocolError

        with pytest.raises(ServiceProtocolError, match="backend"):
            _spec(kind="experiment", experiment="E3", backend="gpu")


class TestConcurrentBackends:
    def test_sql_and_kernel_jobs_render_like_the_object_job(self):
        # Two daemon jobs pinned to different backends run at once and
        # share the process's memo caches; each must render exactly
        # what the object backend renders alone.
        import threading

        def sweep(backend):
            return _spec(
                kind="subset",
                mapping="Example5.4",
                domain=["a", "b", "c"],
                max_facts=2,
                symmetry="orbits",
                backend=backend,
            )

        reset_all_caches()
        expected = execute_job(sweep("object")).rendering
        reset_all_caches()
        barrier = threading.Barrier(2, timeout=10)
        renderings = {}

        def run(backend):
            barrier.wait()
            renderings[backend] = execute_job(sweep(backend)).rendering

        threads = [
            threading.Thread(target=run, args=(backend,))
            for backend in ("sql", "kernel")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert renderings == {"sql": expected, "kernel": expected}


class TestSharedCatalogMapping:
    def test_two_threads_on_one_mapping_render_like_a_serial_run(self):
        # Catalog names resolve to one mapping object per process, so
        # concurrent jobs on the same name share it and its memos.
        import threading

        from repro.service.protocol import resolve_mapping

        spec = _spec(kind="subset", mapping="Decomposition", max_facts=2)
        reset_all_caches()
        expected = execute_job(spec).rendering
        reset_all_caches()
        barrier = threading.Barrier(2, timeout=10)
        renderings = [None, None]
        mappings = [None, None]

        def run(slot):
            mappings[slot] = resolve_mapping(spec["mapping"])
            barrier.wait()
            renderings[slot] = execute_job(spec).rendering

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert mappings[0] is mappings[1]
        assert renderings == [expected, expected]


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


class TestWarmJobsRederiveNothing:
    """A warm process answers a repeated job from the derived-mapping
    and round-trip verdict memos: no MinGen, no reverse chase."""

    @staticmethod
    def _count(monkeypatch):
        import importlib

        calls = {"minimal_generators": 0, "disjunctive_chase": 0}
        # the modules that call them, under the names they bound
        for module_name, function in (
            ("repro.core.quasi_inverse", "minimal_generators"),
            ("repro.core.composition", "minimal_generators"),
            ("repro.dataexchange.exchange", "disjunctive_chase"),
        ):
            module = importlib.import_module(module_name)
            real = getattr(module, function)

            def counting(*args, _real=real, _function=function, **kwargs):
                calls[_function] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, function, counting)
        return calls

    @pytest.mark.parametrize("experiment", ["E3", "E7"])
    def test_a_repeated_experiment_job(self, monkeypatch, experiment):
        calls = self._count(monkeypatch)
        spec = _spec(kind="experiment", experiment=experiment)
        reset_all_caches()
        cold = execute_job(spec)
        assert cold.state == "done" and calls["disjunctive_chase"] > 0
        if experiment == "E3":
            assert calls["minimal_generators"] > 0
        before = dict(calls)
        warm = execute_job(spec)
        assert calls == before
        assert (warm.state, warm.rendering) == (cold.state, cold.rendering)

    def test_a_roundtrip_job_chases_each_instance_once(self, monkeypatch):
        from repro.service.protocol import resolve_mapping
        from repro.workloads import power_instances

        calls = self._count(monkeypatch)
        spec = _spec(
            kind="roundtrip",
            mapping="Decomposition",
            reverse="Decomposition''",
            max_facts=2,
            workers=1,
            symmetry="full",
        )
        universe = list(
            power_instances(
                resolve_mapping(spec["mapping"]).source,
                tuple(spec["domain"]),
                max_facts=spec["max_facts"],
            )
        )
        reset_all_caches()
        outcome = execute_job(spec)
        assert outcome.state == "done"
        assert calls["disjunctive_chase"] == len(universe)


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


def _catalog_names():
    from repro.catalog import named_mappings

    return sorted(named_mappings())


#: An unnamed inline mapping: its reports are titled "inline".
_INLINE = {"source": {"P": 2}, "target": {"Q": 1}, "dependencies": "P(x,y) -> Q(x)"}


class TestPlainJobsMatchTheOracle:
    """Plain ``unique`` / ``subset`` / ``invertibility`` jobs run as
    one-atom expressions through ``check_expression``; their outcomes
    must equal the former per-kind executors' (tests/service/
    plain_jobs_oracle.py) in state, exit code and rendering."""

    @staticmethod
    def _assert_matches_oracle(monkeypatch, spec):
        import repro.service.jobs as jobs_module
        from tests.service.plain_jobs_oracle import ORACLE_EXECUTORS

        with monkeypatch.context() as patch:
            patch.setitem(
                jobs_module._EXECUTORS, spec["kind"], ORACLE_EXECUTORS[spec["kind"]]
            )
            expected = execute_job(spec)
        got = execute_job(spec)
        assert (got.state, got.exit_code, got.rendering) == (
            expected.state,
            expected.exit_code,
            expected.rendering,
        )

    @pytest.mark.parametrize("max_facts", [1, 2])
    @pytest.mark.parametrize("kind", ["unique", "subset", "invertibility"])
    @pytest.mark.parametrize("name", _catalog_names() + ["inline"])
    def test_every_named_mapping_and_an_inline_one(
        self, monkeypatch, name, kind, max_facts
    ):
        payload = {"kind": kind, "mapping": name, "max_facts": max_facts}
        if name == "inline":
            payload["mapping"] = _INLINE
        if name == "Example4.5" and max_facts == 2:
            # 254 instances over {a, b}: about 25 s per kind and path.
            payload["domain"] = ["a"]
        self._assert_matches_oracle(monkeypatch, normalize_job(payload))

    def test_an_orbit_sweep(self, monkeypatch):
        self._assert_matches_oracle(
            monkeypatch,
            _spec(
                kind="invertibility",
                mapping="Decomposition",
                max_facts=2,
                symmetry="orbits",
            ),
        )

    @needs_fork
    def test_kernel_with_two_workers(self, monkeypatch):
        self._assert_matches_oracle(
            monkeypatch,
            _spec(
                kind="invertibility",
                mapping="Decomposition",
                max_facts=2,
                backend="kernel",
                workers=2,
            ),
        )

"""Fault tolerance: worker supervision, budgets, and partial verdicts.

Every scenario here is deterministic: faults are injected through
``REPRO_FAULTS`` clauses (whose ``worker.*`` points act only inside
forked workers, never in the parent's recovery path) or through explicit
:class:`~repro.engine.budget.Budget` objects whose fault-expiry knob
counts charges instead of reading the clock.
"""

import pickle
import warnings

import pytest

from repro.catalog import decomposition, decomposition_quasi_inverse_join
from repro.core import SolutionEquivalence, subset_property
from repro.core.framework import is_quasi_inverse, unique_solutions_property
from repro.analysis.invertibility import invertibility_report
from repro.dataexchange.recovery import analyze_round_trip, faithful_on, sound_on
from repro.engine import (
    ParallelUniverseRunner,
    engine_stats,
    fork_available,
    reset_all_caches,
)
from repro.engine.budget import (
    Budget,
    SweepVerdict,
    coverage_events,
    reset_coverage_events,
    use_budget,
    worst_coverage,
)
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.context import environment_defaults, set_defaults
from repro.engine.parallel import default_workers
from repro import errors
from repro.errors import (
    BudgetExceeded,
    ChaseError,
    DeadlineExceeded,
    ReproError,
    WorkerFault,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _square(x):
    return x * x


def _raise_at_seven(x):
    if x == 7:
        raise ValueError("boom at 7")
    return x


@pytest.fixture(autouse=True)
def _clean_registries():
    reset_coverage_events()
    engine_stats().reset()
    yield
    reset_coverage_events()


def _decomposition_universe(max_facts=2):
    from repro.workloads import instance_universe

    mapping = decomposition()
    return mapping, list(
        instance_universe(
            mapping.source, ["a", "b"], max_facts=max_facts, include_empty=False
        )
    )


@needs_fork
class TestWorkerDeath:
    def test_sigkilled_worker_is_recovered(self, monkeypatch):
        """A worker SIGKILLed mid-map must not hang the sweep, and the
        merged results must equal a serial run's exactly."""
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=5")
        runner = ParallelUniverseRunner(workers=2, chunk_size=2)
        assert runner.map(_square, range(12)) == [i * i for i in range(12)]
        assert engine_stats().worker_faults >= 1

    def test_sigkilled_worker_checker_verdict_matches_serial(self, monkeypatch):
        """Acceptance: kill one worker mid-sweep; the checker completes
        with the serial verdict and coverage == "exhaustive"."""
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        reset_all_caches()
        serial = sound_on(mapping, reverse, universe, workers=1)

        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=1")
        reset_all_caches()
        parallel = sound_on(mapping, reverse, universe, workers=2)
        assert tuple(parallel) == tuple(serial)
        assert parallel.coverage == "exhaustive"
        assert parallel.instances_checked == len(universe)
        assert engine_stats().worker_faults >= 1
        assert coverage_events() == ()  # recovery is not a partial verdict

    def test_on_fault_raise_surfaces_worker_fault(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=0")
        runner = ParallelUniverseRunner(workers=2, chunk_size=2, on_fault="raise")
        with pytest.raises(WorkerFault) as excinfo:
            runner.map(_square, range(8))
        assert excinfo.value.context["kind"] in ("died", "timeout")

    def test_on_fault_raise_degrades_checker_to_faulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill:task=0")
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        reset_all_caches()
        previous = set_defaults(on_fault="raise")
        try:
            verdict = sound_on(mapping, reverse, universe, workers=2)
        finally:
            set_defaults(**previous)
        assert verdict.coverage == "faulted"
        events = coverage_events()
        assert events and worst_coverage(*(e.coverage for e in events)) == "faulted"

    def test_stuck_worker_times_out_and_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.delay:task=*,seconds=30")
        runner = ParallelUniverseRunner(
            workers=2, chunk_size=2, task_timeout=0.2
        )
        assert runner.map(_square, range(8)) == [i * i for i in range(8)]
        assert engine_stats().worker_faults >= 1


@needs_fork
class TestTaskExceptions:
    def test_task_exception_replays_in_serial_order(self):
        """A task raising inside the pool surfaces the same exception,
        after the same prefix, as a serial run."""
        runner = ParallelUniverseRunner(workers=2, chunk_size=3)
        seen = []
        with pytest.raises(ValueError, match="boom at 7"):
            for result in runner.map_iter(_raise_at_seven, range(20)):
                seen.append(result)
        assert seen == list(range(7))


class TestBudgets:
    def test_instance_cap_stops_sweep_with_partial_verdict(self):
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        verdict = sound_on(
            mapping, reverse, universe, workers=1, budget=Budget(max_instances=2)
        )
        ok, violators = verdict  # legacy tuple unpacking still works
        assert isinstance(verdict, SweepVerdict)
        assert verdict.coverage == "budget"
        assert verdict.instances_checked == 2
        assert coverage_events()[0].coverage == "budget"

    def test_deadline_trips_mid_chase_on_figure1_soundness_sweep(
        self, monkeypatch
    ):
        """Acceptance: a deadline-limited Figure 1 soundness sweep
        returns a partial verdict — coverage "deadline" with a nonzero
        instances-checked count — instead of raising."""
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()

        # Measure the chase work of the first instance (cold caches, so
        # the sweep below recomputes the same steps), then expire the
        # (fault-injected) deadline one chase step later: instance 1
        # completes, a later instance trips mid-chase.
        reset_all_caches()
        probe = Budget(deadline=3600.0)
        with use_budget(probe):
            analyze_round_trip(mapping, reverse, universe[0])
        assert probe.chase_steps >= 1
        reset_all_caches()

        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"budget.expire:resource=chase_steps,after={probe.chase_steps + 1}",
        )
        verdict = sound_on(
            mapping, reverse, universe, workers=1, budget=Budget(deadline=3600.0)
        )
        assert verdict.coverage == "deadline"
        assert 0 < verdict.instances_checked < len(universe)
        assert verdict.ok  # no violation among the instances checked
        event = coverage_events()[0]
        assert event.phase == "check.sound_on"
        assert event.coverage == "deadline"

    def test_pre_expired_deadline_reports_zero_instances(self):
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        verdict = faithful_on(
            mapping, reverse, universe, workers=1, budget=Budget(deadline=0.0)
        )
        assert verdict.coverage == "deadline"
        assert verdict.instances_checked == 0

    def test_analyze_round_trip_degrades_instead_of_raising(self):
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        report = analyze_round_trip(
            mapping, reverse, universe[0], budget=Budget(deadline=0.0)
        )
        assert report.trip is None
        assert report.coverage == "deadline"
        assert not report.sound and not report.faithful
        assert report.recovered_instance is None

    def test_subset_property_reports_partial_coverage(self):
        mapping, universe = _decomposition_universe(max_facts=1)
        relation = SolutionEquivalence(mapping)
        report = subset_property(
            mapping,
            relation,
            relation,
            universe,
            workers=1,
            budget=Budget(max_instances=1),
        )
        assert report.coverage == "budget"
        assert not report.exhaustive
        assert report.instances_checked == 1

    def test_unique_solutions_returns_sweep_verdict(self):
        mapping, universe = _decomposition_universe(max_facts=1)
        holds, violations = unique_solutions_property(mapping, universe, workers=1)
        verdict = unique_solutions_property(mapping, universe, workers=1)
        assert verdict.coverage == "exhaustive"
        assert verdict.instances_checked == len(universe)

    def test_inverse_check_reports_partial_coverage(self):
        mapping, universe = _decomposition_universe(max_facts=1)
        report = is_quasi_inverse(
            mapping,
            decomposition_quasi_inverse_join(),
            universe,
            budget=Budget(max_instances=1),
        )
        assert report.coverage == "budget"
        assert not report.exhaustive

    def test_invertibility_report_aggregates_worst_coverage(self):
        mapping, universe = _decomposition_universe(max_facts=1)
        exhaustive = invertibility_report(mapping, universe)
        assert exhaustive.coverage == "exhaustive"
        assert exhaustive.exhaustive
        partial = invertibility_report(
            mapping, universe, budget=Budget(max_instances=1)
        )
        assert partial.coverage == "budget"
        assert not partial.exhaustive

    def test_algorithm_budget_errors_still_propagate(self):
        """Caller-specified algorithm bounds (max_nulls &c.) are hard
        errors — the governance layer must not swallow them."""
        from repro.engine.budget import governed_coverage
        from repro.errors import CompositionBudgetError

        error = CompositionBudgetError("too many nulls", kind="composition_nulls")
        assert governed_coverage(error) is None

    def test_chase_step_cap_raises_budget_exceeded(self):
        from repro.dataexchange.exchange import round_trip

        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        with use_budget(Budget(max_chase_steps=1)):
            with pytest.raises(BudgetExceeded) as excinfo:
                for instance in universe:
                    round_trip(mapping, reverse, instance)
        assert excinfo.value.kind == "chase_steps"


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_verified_prefix(self, tmp_path):
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        path = str(tmp_path / "journal.json")

        first = sound_on(
            mapping,
            reverse,
            universe,
            workers=1,
            budget=Budget(max_instances=3),
            checkpoint=CheckpointJournal(path, interval=1),
        )
        assert first.coverage == "budget"
        assert first.instances_checked == 3

        resumed = sound_on(
            mapping,
            reverse,
            universe,
            workers=1,
            checkpoint=CheckpointJournal(path, interval=1),
        )
        baseline = sound_on(mapping, reverse, universe, workers=1)
        assert resumed.ok == baseline.ok
        assert resumed.coverage == "exhaustive"
        assert resumed.instances_checked == len(universe)

    def test_stale_journal_entries_are_discarded(self, tmp_path):
        mapping, universe = _decomposition_universe()
        reverse = decomposition_quasi_inverse_join()
        path = str(tmp_path / "journal.json")
        sound_on(
            mapping,
            reverse,
            universe,
            workers=1,
            budget=Budget(max_instances=2),
            checkpoint=CheckpointJournal(path, interval=1),
        )
        # A different universe length must restart from scratch.
        verdict = sound_on(
            mapping,
            reverse,
            universe[:-1],
            workers=1,
            checkpoint=CheckpointJournal(path, interval=1),
        )
        assert verdict.instances_checked == len(universe) - 1


class TestWorkerKnobs:
    def test_invalid_repro_workers_warns_once_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="a-very-bogus-count") as caught:
            found = environment_defaults({"REPRO_WORKERS": "a-very-bogus-count"})
        assert found == {}  # the worker count keeps its default
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reading the default stays silent
            default_workers()


class TestErrorHierarchy:
    def test_legacy_aliases_point_at_unified_hierarchy(self):
        from repro.chase.standard import ChaseError as chase_alias
        from repro.core.mapping import MappingError as mapping_alias
        from repro.dependencies.parser import ParseError as parser_alias
        from repro.workloads.universes import UniverseTooLarge as universe_alias

        assert chase_alias is errors.ChaseError
        assert mapping_alias is errors.MappingError
        assert parser_alias is errors.ParseError
        assert universe_alias is errors.UniverseTooLarge
        for cls in (chase_alias, mapping_alias, parser_alias, universe_alias):
            assert issubclass(cls, ReproError)

    def test_legacy_builtin_bases_are_preserved(self):
        assert issubclass(errors.MappingError, ValueError)
        assert issubclass(errors.ParseError, ValueError)
        assert issubclass(errors.UniverseTooLarge, ValueError)
        assert issubclass(errors.ChaseError, RuntimeError)
        assert issubclass(errors.BudgetExceeded, RuntimeError)
        assert issubclass(errors.DeadlineExceeded, errors.BudgetExceeded)

    def test_context_survives_pickling(self):
        original = DeadlineExceeded(
            "deadline passed", kind="deadline", limit=1.5, consumed=2.0
        )
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is DeadlineExceeded
        assert clone.message == "deadline passed"
        assert clone.kind == "deadline"
        assert clone.limit == 1.5
        assert clone.consumed == 2.0

    def test_chase_error_carries_machine_readable_context(self):
        from repro.chase.standard import chase
        from repro.dependencies.parser import parse_dependency

        mapping, universe = _decomposition_universe(max_facts=1)
        dependency = parse_dependency("P(x, y, z) -> Q(x, y) & R(y, z)")
        with pytest.raises(ChaseError) as excinfo:
            chase(universe[0], [dependency], max_steps=0)
        assert excinfo.value.context["kind"] == "chase_steps"
        assert excinfo.value.context["limit"] == 0

    def test_sweep_verdict_pickles_with_metadata(self):
        verdict = SweepVerdict(
            True, (), coverage="deadline", instances_checked=4
        )
        clone = pickle.loads(pickle.dumps(verdict))
        assert clone == (True, ())
        assert clone.coverage == "deadline"
        assert clone.instances_checked == 4

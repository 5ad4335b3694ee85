"""The process-wide engine defaults: each ``REPRO_*`` knob is read once,
at start-up, and ``set_defaults`` is the one setter; backend selection
and the one parser of backend names."""

import os
import re
import subprocess
import sys
import threading
import warnings

import pytest

import repro.cli
import repro.experiments
from repro.catalog import example_5_4
from repro.core import SolutionEquivalence, subset_property
from repro.core.mapping import universal_solution
from repro.engine import (
    active_backend,
    default_backend,
    default_journal,
    default_workers,
    engine_stats,
    reset_all_caches,
    set_defaults,
    sqlbackend,
    use_backend,
)
from repro.engine.budget import (
    Budget,
    coverage_events,
    coverage_scope,
    current_budget,
    governed_coverage,
    record_coverage,
    use_budget,
)
from repro.engine.context import (
    CONTEXT,
    KNOBS,
    EngineContext,
    backend_name,
    environment_defaults,
    resolve_backend,
    scope,
)
from repro.engine.symmetry import ground_keys_active
from repro.errors import CompositionBudgetError
from repro.service.__main__ import _configure_daemon_engine, build_parser
from repro.service.jobs import execute_job
from repro.service.protocol import normalize_job
from repro.workloads import instance_universe

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: knob -> (value set before start-up, what reads it, what that gives).
#: ``{tmp}`` stands for a scratch directory.
HONOURED = {
    "REPRO_BACKEND": ("sql", "active_backend()", "'sql'"),
    "REPRO_STORE": ("{tmp}/s.sqlite", "active_store().path", "'{tmp}/s.sqlite'"),
    "REPRO_WORKERS": ("3", "ParallelUniverseRunner().workers", "3"),
    "REPRO_TASK_TIMEOUT": ("7.5", "ParallelUniverseRunner().task_timeout", "7.5"),
    "REPRO_ON_FAULT": ("raise", "ParallelUniverseRunner().on_fault", "'raise'"),
    "REPRO_DEADLINE": ("12.5", "default_budget().deadline", "12.5"),
    "REPRO_MAX_INSTANCES": ("4", "default_budget().max_instances", "4"),
    "REPRO_MAX_CHASE_STEPS": ("99", "default_budget().max_chase_steps", "99"),
    "REPRO_MAX_RSS_MB": ("512", "default_budget().max_rss_mb", "512.0"),
    "REPRO_CHECKPOINT": ("{tmp}/j.json", "default_journal().path", "'{tmp}/j.json'"),
    "REPRO_RESUME": ("1", "CONTEXT.resume", "True"),
    "REPRO_SYMMETRY": ("orbits", "resolve_symmetry(None)", "'orbits'"),
    "REPRO_SHARDS": ("3", "resolve_shards(None, None)", "(3, None)"),
    "REPRO_SHARD_ID": ("2", "default_shards()", "(1, 2)"),
    "REPRO_SQL_DB": ("{tmp}/scratch.db", "default_sql_db()", "'{tmp}/scratch.db'"),
    "REPRO_PLAN": ("materialize", "resolve_plan_mode(None)", "'materialize'"),
}

_PROBE = (
    "from repro.algebra.plan import resolve_plan_mode\n"
    "from repro.engine import *\n"
    "from repro.engine.context import CONTEXT\n"
    "print(repr({expression}))\n"
)


def _clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra, PYTHONPATH=REPO_SRC)
    return env


def test_every_knob_has_a_start_up_case():
    assert set(HONOURED) == set(KNOBS)


@pytest.mark.parametrize("knob", sorted(HONOURED))
def test_knob_set_before_start_up_is_honoured(knob, tmp_path):
    value, expression, expected = HONOURED[knob]
    env = _clean_env(**{knob: value.format(tmp=tmp_path)})
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE.format(expression=expression)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == expected.format(tmp=tmp_path)
    assert "Warning" not in completed.stderr


#: knob -> a value its parser rejects.
UNPARSABLE = {
    "REPRO_BACKEND": "gpu",
    "REPRO_WORKERS": "many",
    "REPRO_TASK_TIMEOUT": "soon",
    "REPRO_ON_FAULT": "ignore",
    "REPRO_DEADLINE": "1m",
    "REPRO_MAX_INSTANCES": "lots",
    "REPRO_MAX_CHASE_STEPS": "1e",
    "REPRO_MAX_RSS_MB": "1GB",
    "REPRO_SYMMETRY": "mirror",
    "REPRO_SHARDS": "two",
    "REPRO_SHARD_ID": "first",
    "REPRO_PLAN": "fastest",
}


@pytest.mark.parametrize("knob", sorted(UNPARSABLE))
def test_unparsable_knob_keeps_its_default_with_one_warning(knob):
    with pytest.warns(RuntimeWarning) as caught:
        found = environment_defaults({knob: UNPARSABLE[knob]})
    assert found == {}
    assert len(caught) == 1
    message = str(caught[0].message)
    assert knob in message and repr(UNPARSABLE[knob]) in message
    field = KNOBS[knob][0]
    assert repr(getattr(EngineContext, field)) in message


def test_unparsable_knob_at_start_up_warns_once_and_runs_on_the_default():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE.format(expression="default_workers()")],
        env=_clean_env(REPRO_WORKERS="many"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "1"
    assert completed.stderr.count("RuntimeWarning") == 1
    assert "REPRO_WORKERS='many'" in completed.stderr


def test_empty_knob_counts_as_unset():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert environment_defaults({"REPRO_WORKERS": " ", "REPRO_STORE": ""}) == {}


def test_environment_is_not_read_after_start_up(monkeypatch):
    before = default_workers()
    monkeypatch.setenv("REPRO_WORKERS", str(before + 5))
    assert default_workers() == before


class TestSetDefaults:
    def test_returns_what_puts_the_previous_defaults_back(self):
        before = (default_workers(), CONTEXT.symmetry)
        previous = set_defaults(workers="4", symmetry="orbits")
        try:
            assert previous == {"workers": before[0], "symmetry": before[1]}
            assert (default_workers(), CONTEXT.symmetry) == (4, "orbits")
        finally:
            set_defaults(**previous)
        assert (default_workers(), CONTEXT.symmetry) == before

    def test_unknown_field_is_refused(self):
        with pytest.raises(TypeError, match="colour"):
            set_defaults(colour="blue")

    def test_a_bad_value_sets_nothing(self):
        before = (default_workers(), CONTEXT.backend)
        with pytest.raises(ValueError, match="backend"):
            set_defaults(workers=3, backend="gpu")
        assert (default_workers(), CONTEXT.backend) == before

    def test_one_journal_serves_every_checker(self, tmp_path):
        path = str(tmp_path / "journal.json")
        previous = set_defaults(checkpoint=path, resume=True)
        try:
            journal = default_journal()
            assert journal.path == path and journal.resume
            assert default_journal() is journal
        finally:
            set_defaults(**previous)
        assert CONTEXT.checkpoint == previous["checkpoint"]


class TestScope:
    def test_a_field_the_thread_had_not_set_is_deleted_on_exit(self):
        assert "symmetry" not in vars(CONTEXT)
        with scope(symmetry="orbits"):
            assert CONTEXT.symmetry == "orbits"
        assert "symmetry" not in vars(CONTEXT)
        previous = set_defaults(symmetry="orbits")
        try:
            assert CONTEXT.symmetry == "orbits"
        finally:
            set_defaults(**previous)

    def test_nested_scopes_restore_the_outer_value(self):
        with scope(symmetry="orbits"):
            with scope(symmetry="full"):
                assert CONTEXT.symmetry == "full"
            assert CONTEXT.symmetry == "orbits"
        assert "symmetry" not in vars(CONTEXT)

    def test_unknown_field_sets_nothing(self):
        with pytest.raises(AttributeError):
            with scope(symmetry="orbits", colour="blue"):
                pass
        assert "symmetry" not in vars(CONTEXT)


class TestBackendSelection:
    def test_resolve_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    @pytest.mark.parametrize(
        "value, expected",
        [("object", "object"), ("sql", "sql"), ("kernel", "object"), (" Kernel ", "object")],
        ids=["object", "sql", "kernel", "padded-capitalized-kernel"],
    )
    def test_one_parser_resolves_every_spelling(self, value, expected):
        assert backend_name(value) == expected
        assert resolve_backend(value) == expected

    @pytest.mark.parametrize(
        "value, expected",
        [("kernel", "object"), (" SQL ", "sql"), ("bogus", "object")],
        ids=["kernel", "padded-uppercase-sql", "unknown-falls-back-to-object"],
    )
    def test_environment_sets_the_default_at_start(self, value, expected):
        printed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.engine import active_backend, default_backend\n"
                "print(default_backend(), active_backend())",
            ],
            env=_clean_env(REPRO_BACKEND=value),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.split()
        assert printed == [expected, expected]

    def test_environment_edits_after_start_do_not_move_the_default(
        self, monkeypatch
    ):
        before = default_backend()
        monkeypatch.setenv("REPRO_BACKEND", "sql" if before != "sql" else "object")
        assert default_backend() == before
        assert active_backend() == before

    def test_setter_rejects_an_unknown_backend(self):
        before = default_backend()
        with pytest.raises(ValueError):
            set_defaults(backend="gpu")
        assert default_backend() == before

    def test_setter_moves_the_default_after_a_scope_exits(self):
        # scope() deletes a field the thread had not set, so a thread
        # that left use_backend follows a default set afterwards.
        previous = {}
        try:
            with use_backend("object"):
                assert active_backend() == "object"
            previous = set_defaults(backend="sql")
            assert active_backend() == "sql"
            with use_backend("object"):
                assert active_backend() == "object"
            assert active_backend() == "sql"
        finally:
            set_defaults(**previous)

    def test_another_thread_follows_a_default_set_after_its_scope(self):
        left_scope = threading.Event()
        default_moved = threading.Event()
        seen = []

        def job():
            with use_backend("object"):
                seen.append(active_backend())
            left_scope.set()
            assert default_moved.wait(timeout=10)
            seen.append(active_backend())

        thread = threading.Thread(target=job)
        thread.start()
        previous = {}
        try:
            assert left_scope.wait(timeout=10)
            previous = set_defaults(backend="sql")
            default_moved.set()
            thread.join(timeout=30)
        finally:
            set_defaults(**previous)
        assert seen == ["object", "sql"]

    def test_use_backend_nests_and_restores(self):
        assert active_backend() == "object"
        with use_backend("sql"):
            assert active_backend() == "sql"
            with use_backend("object"):
                assert active_backend() == "object"
            assert active_backend() == "sql"
        assert active_backend() == "object"

    def test_sweep_runs_on_the_scoped_backend(self, monkeypatch):
        # A sweep given no backend= runs on the thread's backend, not
        # on the process default.
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", 0)
        mapping = example_5_4()
        relation = SolutionEquivalence(mapping)
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        reset_all_caches()
        before = engine_stats().counter("sql_chase_rounds")
        with use_backend("sql"):
            subset_property(mapping, relation, relation, universe)
        assert engine_stats().counter("sql_chase_rounds") > before

    @pytest.mark.parametrize(
        "backend, in_sqlite", [("object", False), ("sql", True), ("kernel", False)]
    )
    def test_each_backend_selects_its_chase(self, backend, in_sqlite, monkeypatch):
        # The chase's stratified branch is the one place that asks the
        # backend: on sql it hands the chase to SQLite, elsewhere it
        # runs the interpreted loop.
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", 0)
        chase_in_sql = sqlbackend.sql_stratified_chase
        handed = []

        def recording(instance, dependencies, **options):
            handed.append(instance)
            return chase_in_sql(instance, dependencies, **options)

        monkeypatch.setattr(sqlbackend, "sql_stratified_chase", recording)
        mapping = example_5_4()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        reset_all_caches()
        with use_backend(backend):
            solutions = [universal_solution(mapping, source) for source in universe]
        assert bool(handed) == in_sqlite
        reset_all_caches()
        with use_backend("object"):
            assert solutions == [universal_solution(mapping, source) for source in universe]

    def test_concurrent_scopes_are_per_thread(self):
        # Two daemon jobs hold their own backend, ground-key, budget,
        # governed-kind and coverage-event scopes at the same time;
        # each must see only its own, and the process must be back on
        # the defaults once both are gone.  Thread "a" exits first, so
        # a process-global scope would be restored to a stale value by
        # "b".
        both_inside = threading.Barrier(2, timeout=10)
        both_read = threading.Barrier(2, timeout=10)
        a_exited = threading.Event()
        budgets = {"a": Budget(deadline=3600.0), "b": Budget(max_instances=9)}
        trip = CompositionBudgetError("too many nulls", kind="composition_nulls")
        main_events = coverage_events()
        seen = {}

        def job(name, backend, ground_keys, governed):
            with use_backend(backend), scope(
                ground_keys=ground_keys, governed=governed
            ), use_budget(budgets[name]), coverage_scope():
                record_coverage(f"check.{name}", "budget")
                both_inside.wait()
                seen[name] = (
                    active_backend(),
                    ground_keys_active(),
                    current_budget() is budgets[name],
                    governed_coverage(trip),
                    [event.phase for event in coverage_events()],
                )
                both_read.wait()
                if name == "b":
                    assert a_exited.wait(timeout=10)
            if name == "a":
                a_exited.set()

        threads = [
            threading.Thread(
                target=job,
                args=("a", "sql", True, frozenset({"composition_nulls"})),
            ),
            threading.Thread(target=job, args=("b", "object", False, frozenset())),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert seen == {
            "a": ("sql", True, True, "budget", ["check.a"]),
            "b": ("object", False, True, None, ["check.b"]),
        }
        assert active_backend() == default_backend()
        assert not ground_keys_active()
        assert current_budget() is None
        assert governed_coverage(trip) is None
        assert coverage_events() == main_events


# -- the name of the removed compiled backend -------------------------------
#
# Each entry point runs E4 under a backend name and returns the backends
# in effect while it ran and what it rendered.

_TIMING = re.compile(r"^  \(\d+\.\d+s\)$", re.MULTILINE)  # `run`'s per-experiment time


def _through_the_environment(backend, seen, capsys):
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.engine import active_backend\n"
            "from repro.experiments import run_experiment\n"
            "report = run_experiment('E4')\n"
            "print(active_backend())\n"
            "print(report.render())",
        ],
        env=_clean_env(REPRO_BACKEND=backend),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    backend_seen, _, rendering = completed.stdout.partition("\n")
    return [backend_seen], rendering


def _through_the_cli(backend, seen, capsys):
    assert repro.cli.main(["run", "E4", "--backend", backend]) == 0
    return seen, _TIMING.sub("", capsys.readouterr().out)


def _through_serve(backend, seen, capsys):
    previous = _configure_daemon_engine(
        build_parser().parse_args(["serve", "--backend", backend])
    )
    rendered = []
    try:
        # the daemon runs its jobs on threads that follow its defaults
        thread = threading.Thread(
            target=lambda: rendered.append(repro.experiments.run_experiment("E4").render())
        )
        thread.start()
        thread.join(timeout=120)
    finally:
        set_defaults(**previous)
    return seen, rendered[0]


def _through_a_job_spec(backend, seen, capsys):
    spec = normalize_job({"kind": "experiment", "experiment": "E4", "backend": backend})
    return seen, execute_job(spec).rendering


def _through_an_older_daemons_journal(backend, seen, capsys):
    # a restored record's spec is not normalized again
    spec = dict(normalize_job({"kind": "experiment", "experiment": "E4"}), backend=backend)
    return seen, execute_job(spec).rendering


def _through_use_backend(backend, seen, capsys):
    with use_backend(backend):
        return seen, repro.experiments.run_experiment("E4").render()


LEGACY_ENTRIES = {
    "REPRO_BACKEND": _through_the_environment,
    "repro.cli run --backend": _through_the_cli,
    "serve --backend": _through_serve,
    "job spec": _through_a_job_spec,
    "older daemon's journal": _through_an_older_daemons_journal,
    "use_backend": _through_use_backend,
}


@pytest.mark.parametrize("entry", sorted(LEGACY_ENTRIES))
def test_the_removed_kernel_backend_runs_on_object(entry, monkeypatch, capsys):
    seen = []
    run_experiment = repro.experiments.run_experiment

    def probe(experiment_id):
        seen.append(active_backend())
        return run_experiment(experiment_id)

    monkeypatch.setattr(repro.experiments, "run_experiment", probe)
    monkeypatch.setattr(repro.cli, "run_experiment", probe)
    runs = {}
    for backend in ("object", "kernel"):
        seen.clear()
        reset_all_caches()
        backends, rendering = LEGACY_ENTRIES[entry](backend, seen, capsys)
        runs[backend] = (list(backends), rendering)
    assert runs["kernel"] == runs["object"]
    backends, rendering = runs["kernel"]
    assert backends == ["object"] and "E4" in rendering

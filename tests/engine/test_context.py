"""The process-wide engine defaults: each ``REPRO_*`` knob is read once,
at start-up, and ``set_defaults`` is the one setter."""

import os
import subprocess
import sys
import warnings

import pytest

from repro.engine import default_journal, default_workers, set_defaults
from repro.engine.context import (
    CONTEXT,
    KNOBS,
    EngineContext,
    environment_defaults,
    scope,
)

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: knob -> (value set before start-up, what reads it, what that gives).
#: ``{tmp}`` stands for a scratch directory.
HONOURED = {
    "REPRO_BACKEND": ("kernel", "active_backend()", "'kernel'"),
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

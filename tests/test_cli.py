"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "E1" in output and "E13" in output


def test_run_single_experiment(capsys):
    assert main(["run", "E11"]) == 0
    output = capsys.readouterr().out
    assert "Figure 1" in output
    assert "ALL CHECKS PASS" in output


def test_run_is_case_insensitive(capsys):
    assert main(["run", "e4"]) == 0


def test_run_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["run", "E99"])


def test_run_json_output(capsys):
    import json

    assert main(["run", "E4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["id"] == "E4"
    assert payload[0]["passed"] is True
    assert all(check["passed"] for check in payload[0]["checks"])


def test_export_sql(capsys):
    assert main(["export", "Decomposition", "--format", "sql"]) == 0
    output = capsys.readouterr().out
    assert "CREATE TABLE p" in output
    assert "INSERT INTO q" in output


def test_export_json(capsys):
    import json

    assert main(["export", "Example4.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "Example4.5"
    assert len(payload["dependencies"]) == 4


def test_export_unknown_mapping(capsys):
    assert main(["export", "Nope"]) == 2


def test_export_sql_refuses_existential_mapping(capsys):
    # Example 4.5 has existential conclusions: no faithful SQL.
    assert main(["export", "Example4.5", "--format", "sql"]) == 2


def test_backend_flag_reaches_the_engine(capsys):
    from repro.engine import default_backend, reset_all_caches
    from repro.engine.kernel import kinstance_cache

    previous = default_backend()
    reset_all_caches()
    assert main(["run", "E4", "--backend", "kernel"]) == 0
    # the run built kernel instances, so it ran on the kernel
    assert kinstance_cache.stats().misses > 0
    assert "ALL CHECKS PASS" in capsys.readouterr().out
    # and the flag held for that call only
    assert default_backend() == previous


def test_store_flag_reaches_every_checker(tmp_path, capsys):
    # E12's soundness and faithfulness sweeps are not among the
    # checkers that used to install the store themselves.
    from repro.engine import active_store, reset_all_caches

    path = tmp_path / "s.sqlite"
    reset_all_caches()
    assert main(["run", "E12", "--store", str(path), "--engine-stats"]) == 0
    assert path.exists()
    store_lines = [
        line for line in capsys.readouterr().err.splitlines()
        if line.strip().startswith("store ")
    ]
    assert len(store_lines) == 1
    writes = int(store_lines[0].split(" writes")[0].split()[-1])
    assert writes > 0
    assert active_store() is None or active_store().path != str(path)


def test_engine_flags_hold_for_their_own_call_only(capsys):
    import os

    before = dict(os.environ)
    assert main(["run", "E3", "--max-instances", "1"]) == 3
    assert main(["run", "E3"]) == 0
    assert dict(os.environ) == before


def test_cache_size_holds_for_its_own_call_only(capsys):
    from repro.engine.cache import all_cache_stats, configured_maxsize

    before = [stats.maxsize for stats in all_cache_stats()]
    assert main(["run", "E11", "--cache-size", "7"]) == 0
    assert [stats.maxsize for stats in all_cache_stats()] == before
    assert configured_maxsize(1000) == 1000


@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_cache_size_below_one_is_a_usage_error(capsys, value):
    from repro.engine.cache import all_cache_stats

    before = [stats.maxsize for stats in all_cache_stats()]
    with pytest.raises(SystemExit) as exited:
        main(["run", "E11", "--cache-size", value])
    assert exited.value.code == 2
    assert "--cache-size" in capsys.readouterr().err
    assert [stats.maxsize for stats in all_cache_stats()] == before


def test_partial_verdicts_of_earlier_checks_do_not_change_the_exit_code(capsys):
    from repro.engine.budget import coverage_scope, record_coverage

    with coverage_scope():
        record_coverage("check.earlier", "budget", instances_checked=1)
        assert main(["run", "E4"]) == 0
    assert "partial verdicts" not in capsys.readouterr().err


def test_backend_flag_rejects_unknown_value():
    with pytest.raises(SystemExit):
        main(["run", "E4", "--backend", "gpu"])


def test_check_done_exit_0(capsys):
    assert main(["check", "invertibility", "Example5.4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== check Example5.4: invertibility")
    assert "verdict: all bounded checks pass" in out


def test_check_violated_exit_1(capsys):
    assert main(["check", "unique", "Projection"]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_check_partial_exit_3(capsys):
    code = main(
        ["check", "subset", "Decomposition", "--max-facts", "2",
         "--max-instances", "4"]
    )
    assert code == 3
    assert "coverage: budget" in capsys.readouterr().out


def test_check_unknown_mapping_exit_2(capsys):
    assert main(["check", "subset", "Nope"]) == 2
    assert "unknown catalog mapping" in capsys.readouterr().err


def test_check_roundtrip_reverse_of_the_wrong_schema_exit_2(capsys):
    code = main(["check", "roundtrip", "Projection", "--reverse", "Projection"])
    assert code == 2
    assert "target schema" in capsys.readouterr().err


def test_check_roundtrip_accepts_a_named_inverse(capsys):
    code = main(
        ["check", "roundtrip", "Decomposition", "--reverse", "Decomposition'"]
    )
    assert code == 0
    assert "round trip via Decomposition'" in capsys.readouterr().out


def test_check_unreachable_server_exit_2(capsys):
    code = main(
        ["check", "unique", "Projection", "--server", "http://127.0.0.1:1",
         "--wait", "1"]
    )
    assert code == 2
    assert "cannot reach service" in capsys.readouterr().err

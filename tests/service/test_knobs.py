"""The ``REPRO_SERVICE_*`` and ``REPRO_CLIENT_*`` knobs: one rule.

A knob that does not parse is a usage error naming the knob (exit 2
from every verb), never a silent fall-back to the default; a flag or
an explicit argument wins over the knob.
"""

import pytest

from repro.service.__main__ import main


@pytest.fixture
def no_serving(monkeypatch):
    """Make a ``serve`` that gets as far as listening fail loudly
    instead of blocking the test."""
    from repro.service.app import ServiceApp

    async def refuse(self):
        raise AssertionError(f"serve went on to listen on port {self.port}")

    monkeypatch.setattr(ServiceApp, "start", refuse)


class TestServeKnobs:
    def test_a_bad_port_is_a_usage_error(self, monkeypatch, tmp_path, capsys, no_serving):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "abc")
        assert main(["serve", "--state-dir", str(tmp_path)]) == 2
        assert "REPRO_SERVICE_PORT='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("REPRO_SERVICE_MAX_JOBS", "two"),
            ("REPRO_SERVICE_JOB_DEADLINE", "soon"),
            ("REPRO_SERVICE_JOB_RETRIES", "-1"),
        ],
    )
    def test_every_bad_serve_knob_is_a_usage_error(
        self, monkeypatch, tmp_path, capsys, no_serving, knob, value
    ):
        monkeypatch.setenv(knob, value)
        assert main(["serve", "--state-dir", str(tmp_path)]) == 2
        assert knob in capsys.readouterr().err

    @pytest.fixture
    def no_queue(self, monkeypatch):
        """Make a ``serve`` that gets as far as loading its job queue
        fail loudly: a bad port must stop it before that."""
        from repro.service.queue import JobQueue

        def refuse(self):
            raise AssertionError("serve loaded its job queue")

        monkeypatch.setattr(JobQueue, "load", refuse)

    def test_an_out_of_range_port_knob_is_a_usage_error(
        self, monkeypatch, tmp_path, capsys, no_queue, no_serving
    ):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "70000")
        assert main(["serve", "--state-dir", str(tmp_path)]) == 2
        assert "REPRO_SERVICE_PORT='70000'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["70000", "-1", "http"])
    def test_a_bad_port_flag_is_a_usage_error(
        self, tmp_path, capsys, no_queue, no_serving, value
    ):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", value, "--state-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "--port" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_a_cache_size_below_one_is_a_usage_error(
        self, tmp_path, capsys, no_queue, no_serving, value
    ):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--cache-size", value, "--state-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_the_port_parser_accepts_exactly_0_to_65535(self):
        from repro.service.knobs import port_number

        assert (port_number("0"), port_number("65535")) == (0, 65535)
        with pytest.raises(ValueError):
            port_number("65536")

    def test_a_flag_wins_over_a_bad_knob(self, monkeypatch, tmp_path, no_serving):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "abc")
        with pytest.raises(AssertionError, match="port 0"):
            main(["serve", "--port", "0", "--state-dir", str(tmp_path)])


class TestClientKnobs:
    @pytest.mark.parametrize("verb", [["status"], ["stats"], ["shutdown"]])
    def test_every_verb_turns_a_bad_knob_into_exit_2(self, monkeypatch, capsys, verb):
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "three")
        assert main([*verb, "--server", "http://127.0.0.1:9"]) == 2
        assert "REPRO_CLIENT_RETRIES" in capsys.readouterr().err

    def test_check_with_a_server_turns_a_bad_knob_into_exit_2(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_CLIENT_BACKOFF", "soon")
        code = cli_main(["check", "unique", "Projection", "--server", "http://127.0.0.1:9"])
        assert code == 2
        assert "REPRO_CLIENT_BACKOFF" in capsys.readouterr().err


class TestEndpointKnobs:
    def test_url_and_state_knobs_still_steer_discovery(self, monkeypatch, tmp_path):
        from repro.service.client import discover_endpoint, state_dir

        monkeypatch.setenv("REPRO_SERVICE_STATE", str(tmp_path))
        assert state_dir() == str(tmp_path)
        assert state_dir("explicit") == "explicit"
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://example.invalid:1/")
        assert discover_endpoint() == "http://example.invalid:1"
        assert discover_endpoint("http://flag:2") == "http://flag:2"

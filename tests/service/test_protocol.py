"""Wire-format normalization: canonical specs, content keys, state maps."""

import pytest

from repro.errors import ServiceProtocolError
from repro.service.protocol import (
    JOB_STATES,
    STATE_EXIT_CODES,
    STATE_HTTP_STATUS,
    TERMINAL_STATES,
    exit_code_for,
    job_key,
    normalize_job,
    resolve_mapping,
)


class TestNormalizeJob:
    def test_defaults_fill_in(self):
        spec = normalize_job({"kind": "subset", "mapping": "Projection"})
        assert spec == {
            "kind": "subset",
            "mapping": "Projection",
            "domain": ["a", "b"],
            "max_facts": 1,
        }

    def test_domain_is_sorted_and_deduplicated(self):
        spec = normalize_job(
            {"kind": "unique", "mapping": "Projection", "domain": ["b", "a", "b"]}
        )
        assert spec["domain"] == ["a", "b"]

    def test_domain_accepts_comma_string(self):
        spec = normalize_job(
            {"kind": "unique", "mapping": "Projection", "domain": "c,a"}
        )
        assert spec["domain"] == ["a", "c"]

    def test_experiment_spec_carries_only_the_id(self):
        spec = normalize_job({"kind": "experiment", "experiment": "E1"})
        assert spec == {"kind": "experiment", "experiment": "E1"}

    def test_roundtrip_needs_reverse(self):
        with pytest.raises(ServiceProtocolError):
            normalize_job({"kind": "roundtrip", "mapping": "Decomposition"})

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"kind": "nonsense"},
            {"kind": "subset"},  # no mapping
            {"kind": "subset", "mapping": "NoSuchMapping"},
            {"kind": "experiment", "experiment": "E999"},
            {"kind": "subset", "mapping": "Projection", "domain": []},
            {"kind": "subset", "mapping": "Projection", "max_facts": -1},
            {"kind": "subset", "mapping": "Projection", "max_facts": True},
            {"kind": "subset", "mapping": "Projection", "workers": "two"},
            {"kind": "subset", "mapping": "Projection", "symmetry": "diag"},
            {"kind": "subset", "mapping": "Projection", "backend": "gpu"},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ServiceProtocolError):
            normalize_job(payload)

    def test_option_typing_floats_accept_ints(self):
        spec = normalize_job(
            {"kind": "subset", "mapping": "Projection", "deadline": 5}
        )
        assert spec["deadline"] == 5.0
        assert isinstance(spec["deadline"], float)

    def test_inline_mapping_canonicalized(self):
        spec = normalize_job(
            {
                "kind": "subset",
                "mapping": {
                    "source": {"P": 2},
                    "target": {"Q": 2},
                    "dependencies": "P(x,y) -> Q(x,y)",
                    "name": "copy",
                },
            }
        )
        assert spec["mapping"]["source"] == {"P": 2}
        assert resolve_mapping(spec["mapping"]).name == "copy"

    def test_inline_mapping_parse_errors_rejected_at_submit(self):
        with pytest.raises(ServiceProtocolError):
            normalize_job(
                {
                    "kind": "subset",
                    "mapping": {
                        "source": {"P": 2},
                        "target": {"Q": 2},
                        "dependencies": "this is not a dependency",
                    },
                }
            )


class TestCatalogNames:
    def test_a_name_resolves_to_one_shared_mapping(self):
        assert resolve_mapping("Example5.4") is resolve_mapping("Example5.4")

    def test_unknown_name_lists_the_known_names(self):
        with pytest.raises(ServiceProtocolError) as raised:
            resolve_mapping("NoSuchMapping")
        message = str(raised.value)
        assert "'NoSuchMapping'" in message
        assert "known: Decomposition, Decomposition', Decomposition''," in message

    def test_named_inverses_resolve_as_in_expressions(self):
        from repro.catalog import named_mappings

        assert resolve_mapping("Decomposition'") is named_mappings()["Decomposition'"]
        spec = normalize_job(
            {"kind": "roundtrip", "mapping": "Decomposition", "reverse": "Decomposition'"}
        )
        assert spec["reverse"] == "Decomposition'"

    def test_roundtrip_reverse_must_read_the_forward_target(self):
        with pytest.raises(ServiceProtocolError, match="target schema"):
            normalize_job(
                {"kind": "roundtrip", "mapping": "Projection", "reverse": "Projection"}
            )


class TestJobKey:
    def test_equal_questions_equal_keys(self):
        left = normalize_job(
            {"kind": "subset", "mapping": "Projection", "domain": ["b", "a"]}
        )
        right = normalize_job(
            {"kind": "subset", "mapping": "Projection", "domain": "a,b"}
        )
        assert job_key(left) == job_key(right)

    def test_different_questions_differ(self):
        base = {"kind": "subset", "mapping": "Projection"}
        assert job_key(normalize_job(base)) != job_key(
            normalize_job({**base, "max_facts": 2})
        )
        assert job_key(normalize_job(base)) != job_key(
            normalize_job({**base, "kind": "unique"})
        )

    def test_options_are_part_of_the_key(self):
        base = {"kind": "subset", "mapping": "Projection"}
        assert job_key(normalize_job(base)) != job_key(
            normalize_job({**base, "symmetry": "orbits"})
        )


class TestStateMaps:
    def test_every_terminal_state_has_exit_code_and_http_status(self):
        for state in TERMINAL_STATES:
            assert exit_code_for(state) == STATE_EXIT_CODES[state]
            assert state in STATE_HTTP_STATUS

    def test_exit_codes_mirror_the_cli(self):
        assert STATE_EXIT_CODES["done"] == 0
        assert STATE_EXIT_CODES["violated"] == 1
        assert STATE_EXIT_CODES["partial"] == 3
        assert STATE_EXIT_CODES["faulted"] == 4

    def test_non_terminal_states_have_no_exit_code(self):
        for state in JOB_STATES:
            if state in TERMINAL_STATES:
                continue
            assert STATE_HTTP_STATUS[state] == 202
            with pytest.raises(ServiceProtocolError):
                exit_code_for(state)


class TestBuildPayload:
    def test_submit_builds_algebra_jobs_like_check(self):
        from repro.service.__main__ import _build_payload, build_parser

        arguments = build_parser().parse_args(
            ["submit", "algebra", "compose(Decomposition, Decomposition')", "--max-facts", "2"]
        )
        payload = _build_payload(arguments)
        assert payload == {
            "kind": "algebra",
            "expression": "compose(Decomposition, Decomposition')",
            "max_facts": 2,
        }
        assert normalize_job(payload)["check"] == "invertibility"

    @pytest.mark.parametrize(
        "argv",
        [
            [
                "algebra",
                "compose(Decomposition, Decomposition')",
                "--check",
                "subset",
                "--plan",
                "membership",
                "--explain-plan",
            ],
            ["algebra", "Union", "--check", "inverse", "--reverse", "Union'"],
            [
                "unique", "Projection", "--domain", "a,b,c", "--max-facts", "2",
                "--symmetry", "orbits", "--backend", "kernel", "--workers", "2",
            ],
            [
                "roundtrip", "Decomposition", "--reverse", "Decomposition'",
                "--deadline", "5", "--max-instances", "9", "--max-chase-steps",
                "100", "--shards", "2", "--shard-id", "1",
            ],
            ["experiment", "E3"],
        ],
        ids=["algebra", "inverse", "unique", "roundtrip", "experiment"],
    )
    def test_check_and_submit_parse_one_argv_into_one_payload(self, argv):
        from repro.cli import build_parser as check_parser
        from repro.service.__main__ import _build_payload
        from repro.service.__main__ import build_parser as service_parser
        from repro.service.protocol import build_payload

        check = build_payload(check_parser().parse_args(["check", *argv]))
        submit = _build_payload(service_parser().parse_args(["submit", *argv]))
        assert check == submit
        if argv[1].startswith("compose"):
            assert check == {
                "kind": "algebra",
                "expression": "compose(Decomposition, Decomposition')",
                "check": "subset",
                "explain_plan": True,
                "plan": "membership",
            }


    def test_the_daemon_and_submit_start_without_the_algebra(self):
        # A fresh interpreter: this one has long imported repro.algebra.
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.service.__main__ import _build_payload, build_parser\n"
            "_build_payload(build_parser().parse_args(\n"
            "    ['submit', 'algebra', 'Union', '--check', 'subset', '--plan', 'membership']))\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.algebra')))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert completed.stdout.strip() == "[]"

"""The service wire format: job kinds, states, and normalization.

A *job* is one mapping-checking request.  Clients submit a JSON
payload; :func:`normalize_job` validates it and rewrites it into a
canonical spec — defaults filled in, options type-checked, mappings
resolved far enough to reject nonsense at submit time — and
:func:`job_key` digests that canonical spec through the engine's
content-addressed :func:`~repro.engine.store.stable_digest`.  Two
clients asking the same question therefore submit byte-equal specs
with equal keys, which is what lets the queue charge N identical
requests one chase.

The job state machine::

    queued ──▶ running ──▶ done | violated | partial | faulted
       │           │
       └───────────┴─────▶ cancelled

plus one non-terminal edge the drain path uses: ``running → queued``
when a SIGTERM interrupts a sweep mid-flight (the checkpoint journal
holds the verified prefix; a restarted daemon re-queues and resumes).

Terminal states map exactly onto the CLI's exit codes
(:data:`STATE_EXIT_CODES`) and onto HTTP statuses
(:data:`STATE_HTTP_STATUS`) so scripts can read either channel.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.engine import BACKEND_MODES
from repro.errors import ParseError, ServiceProtocolError

#: Checking request kinds the daemon accepts.
JOB_KINDS: Tuple[str, ...] = (
    "experiment",     # run one registered experiment (E1..E14)
    "invertibility",  # parse -> classify -> invertibility report
    "subset",         # (~M,~M)-subset property sweep
    "unique",         # unique-solutions property sweep
    "roundtrip",      # sound_on + faithful_on against a reverse mapping
    "algebra",        # plan-directed check of a mapping expression
)

#: Bounded checks an algebra job can run over its expression.
ALGEBRA_CHECKS: Tuple[str, ...] = (
    "unique",
    "subset",
    "invertibility",
    "inverse",
)

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_VIOLATED = "violated"
STATE_PARTIAL = "partial"
STATE_FAULTED = "faulted"
STATE_CANCELLED = "cancelled"

JOB_STATES: Tuple[str, ...] = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_VIOLATED,
    STATE_PARTIAL,
    STATE_FAULTED,
    STATE_CANCELLED,
)

TERMINAL_STATES = frozenset(
    {STATE_DONE, STATE_VIOLATED, STATE_PARTIAL, STATE_FAULTED, STATE_CANCELLED}
)

#: Terminal state -> the exit code ``repro.cli`` would have returned.
#: ``cancelled`` has no CLI analogue; 5 keeps it distinct from every
#: CLI code (0 pass / 1 violated / 2 usage / 3 partial / 4 faulted).
STATE_EXIT_CODES: Dict[str, int] = {
    STATE_DONE: 0,
    STATE_VIOLATED: 1,
    STATE_PARTIAL: 3,
    STATE_FAULTED: 4,
    STATE_CANCELLED: 5,
}

#: Job state -> the HTTP status of ``GET /jobs/<id>/result``.
STATE_HTTP_STATUS: Dict[str, int] = {
    STATE_QUEUED: 202,
    STATE_RUNNING: 202,
    STATE_DONE: 200,
    STATE_VIOLATED: 422,
    STATE_PARTIAL: 206,
    STATE_FAULTED: 424,
    STATE_CANCELLED: 410,
}

#: Engine options a job may carry, with their expected types.
_OPTION_TYPES: Dict[str, type] = {
    "workers": int,
    "shards": int,
    "shard_id": int,
    "max_instances": int,
    "max_chase_steps": int,
    "deadline": float,
    "symmetry": str,
    "backend": str,
    "plan": str,
}

_DEFAULT_DOMAIN = ("a", "b")
_DEFAULT_MAX_FACTS = 1


def resolve_mapping(spec: Any):
    """The :class:`~repro.core.mapping.SchemaMapping` a job's mapping
    spec denotes: a catalog name (the paper's named inverses such as
    ``Decomposition'`` included, as in mapping expressions), or an
    inline ``{source, target, dependencies}`` description parsed
    through the text front end.  A name resolves to the process's one
    shared mapping object (:func:`repro.catalog.named_mappings`), so
    every job on it hits the same warm per-mapping memos."""
    from repro.catalog import named_mappings
    from repro.core.mapping import SchemaMapping
    from repro.datamodel.schemas import Schema

    if isinstance(spec, str):
        catalog = named_mappings()
        if spec not in catalog:
            raise ServiceProtocolError(
                f"unknown catalog mapping {spec!r}; "
                f"known: {', '.join(sorted(catalog))}"
            )
        return catalog[spec]
    try:
        return SchemaMapping.from_text(
            Schema.of({name: int(arity) for name, arity in spec["source"].items()}),
            Schema.of({name: int(arity) for name, arity in spec["target"].items()}),
            spec["dependencies"],
            name=spec.get("name", "inline"),
        )
    except ParseError as error:
        raise ServiceProtocolError(f"inline mapping does not parse: {error}") from error
    except (ValueError, TypeError) as error:
        raise ServiceProtocolError(f"bad inline mapping spec: {error}") from error


def _normalize_mapping_spec(raw: Any, field: str) -> Tuple[Any, Any]:
    """The canonical form of a mapping spec and the mapping it denotes
    (resolving it rejects unknown names and parse errors at submit)."""
    if isinstance(raw, str):
        return raw, resolve_mapping(raw)
    if isinstance(raw, dict):
        for key in ("source", "target", "dependencies"):
            if key not in raw:
                raise ServiceProtocolError(f"inline {field} spec needs {key!r}")
        if not isinstance(raw["source"], dict) or not isinstance(raw["target"], dict):
            raise ServiceProtocolError(
                f"inline {field} schemas must be {{relation: arity}} objects"
            )
        canonical = {
            "source": {str(k): int(v) for k, v in sorted(raw["source"].items())},
            "target": {str(k): int(v) for k, v in sorted(raw["target"].items())},
            "dependencies": str(raw["dependencies"]),
        }
        if raw.get("name"):
            canonical["name"] = str(raw["name"])
        return canonical, resolve_mapping(canonical)
    raise ServiceProtocolError(
        f"{field} must be a catalog name or an inline spec, got {type(raw).__name__}"
    )


def _normalize_expression(raw: Any, field: str) -> str:
    """Validate an algebra expression at submit time.

    The canonical form is the parser's own re-rendered label, so
    differently-spaced submissions of the same expression normalize
    to equal specs (and hence equal job keys).
    """
    if not isinstance(raw, str) or not raw.strip():
        raise ServiceProtocolError(
            f"algebra jobs need a non-empty {field!r} string"
        )
    from repro.algebra.expr import parse_expression
    from repro.core.mapping import MappingError

    try:
        return parse_expression(raw).label()
    except (ParseError, MappingError) as error:
        raise ServiceProtocolError(
            f"{field} does not parse: {error}"
        ) from error


def normalize_job(payload: Any) -> Dict[str, Any]:
    """Validate a submitted payload into its canonical job spec.

    Raises :class:`ServiceProtocolError` (HTTP 400) for anything
    malformed.  The canonical spec is a plain JSON-serializable dict
    with sorted, fully-defaulted fields, so equal questions produce
    equal specs (and, via :func:`job_key`, equal content keys).
    """
    if not isinstance(payload, dict):
        raise ServiceProtocolError("job payload must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceProtocolError(
            f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}"
        )
    spec: Dict[str, Any] = {"kind": kind}

    if kind == "experiment":
        from repro.experiments import all_experiment_ids

        experiment = payload.get("experiment")
        if experiment not in all_experiment_ids():
            raise ServiceProtocolError(
                f"unknown experiment {experiment!r}; "
                f"known: {', '.join(all_experiment_ids())}"
            )
        spec["experiment"] = experiment
        return spec

    if kind == "algebra":
        spec["expression"] = _normalize_expression(
            payload.get("expression"), "expression"
        )
        check = payload.get("check", "invertibility")
        if check not in ALGEBRA_CHECKS:
            raise ServiceProtocolError(
                f"unknown algebra check {check!r}; "
                f"known: {', '.join(ALGEBRA_CHECKS)}"
            )
        spec["check"] = check
        if check == "inverse":
            spec["reverse"] = _normalize_expression(
                payload.get("reverse"), "reverse"
            )
        if payload.get("explain_plan"):
            spec["explain_plan"] = True
    else:
        spec["mapping"], mapping = _normalize_mapping_spec(
            payload.get("mapping"), "mapping"
        )
        if kind == "roundtrip":
            spec["reverse"], reverse = _normalize_mapping_spec(
                payload.get("reverse"), "reverse"
            )
            if reverse.source != mapping.target:
                raise ServiceProtocolError(
                    f"reverse mapping {reverse.name or 'inline'} reads "
                    f"{reverse.source}, not the target schema "
                    f"{mapping.target} of {mapping.name or 'inline'}"
                )

    domain = payload.get("domain", list(_DEFAULT_DOMAIN))
    if isinstance(domain, str):
        domain = [part for part in domain.split(",") if part]
    if (
        not isinstance(domain, (list, tuple))
        or not domain
        or not all(isinstance(c, str) and c for c in domain)
    ):
        raise ServiceProtocolError("domain must be a non-empty list of constant names")
    spec["domain"] = sorted(set(domain))

    max_facts = payload.get("max_facts", _DEFAULT_MAX_FACTS)
    if not isinstance(max_facts, int) or isinstance(max_facts, bool) or max_facts < 0:
        raise ServiceProtocolError("max_facts must be a non-negative integer")
    spec["max_facts"] = max_facts

    for option, expected in sorted(_OPTION_TYPES.items()):
        value = payload.get(option)
        if value is None:
            continue
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ServiceProtocolError(
                f"option {option!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        if option == "symmetry" and value not in ("full", "orbits"):
            raise ServiceProtocolError("symmetry must be 'full' or 'orbits'")
        if option == "backend" and value not in BACKEND_MODES:
            *names, last = map(repr, BACKEND_MODES)
            raise ServiceProtocolError(
                f"backend must be {', '.join(names)}, or {last}"
            )
        if option == "plan" and value not in ("auto", "materialize", "membership"):
            raise ServiceProtocolError(
                "plan must be 'auto', 'materialize', or 'membership'"
            )
        spec[option] = value
    return spec


#: Engine options a front end's arguments may carry into a payload.
_PAYLOAD_OPTIONS = (
    "workers", "symmetry", "backend", "shards", "shard_id", "deadline",
    "max_instances", "max_chase_steps", "plan",
)


def build_payload(arguments: Any) -> Dict[str, Any]:
    """The job payload a ``repro.cli check`` or ``repro.service submit``
    command line describes: its parsed *arguments* (``kind``,
    ``target``, ``reverse``, ``domain``, ``max_facts``, plus whichever
    engine options and algebra flags that parser defines)."""
    payload: Dict[str, Any] = {"kind": arguments.kind}
    if arguments.kind == "experiment":
        payload["experiment"] = arguments.target
        return payload
    if arguments.kind == "algebra":
        payload["expression"] = arguments.target
        if getattr(arguments, "check", None):
            payload["check"] = arguments.check
        if getattr(arguments, "explain_plan", False):
            payload["explain_plan"] = True
    else:
        payload["mapping"] = arguments.target
    if arguments.reverse:
        payload["reverse"] = arguments.reverse
    if arguments.domain:
        payload["domain"] = arguments.domain
    if arguments.max_facts is not None:
        payload["max_facts"] = arguments.max_facts
    for option in _PAYLOAD_OPTIONS:
        value = getattr(arguments, option, None)
        if value is not None:
            payload[option] = value
    return payload


def _canonical_items(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple((k, _canonical_items(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_items(item) for item in value)
    return value


def job_key(spec: Dict[str, Any]) -> str:
    """The content-addressed identity of a canonical job spec."""
    from repro.engine.store import stable_digest

    return stable_digest(_canonical_items(spec))


def exit_code_for(state: str) -> int:
    if state not in STATE_EXIT_CODES:
        raise ServiceProtocolError(f"state {state!r} is not terminal")
    return STATE_EXIT_CODES[state]


__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "STATE_CANCELLED",
    "STATE_DONE",
    "STATE_EXIT_CODES",
    "STATE_FAULTED",
    "STATE_HTTP_STATUS",
    "STATE_PARTIAL",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "STATE_VIOLATED",
    "TERMINAL_STATES",
    "build_payload",
    "exit_code_for",
    "job_key",
    "normalize_job",
    "resolve_mapping",
]

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

from repro.engine.context import BACKEND_MODES, PLAN_MODES, SYMMETRY_MODES
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

#: The engine options whose values are modes, with their choices.
_OPTION_CHOICES: Dict[str, Tuple[str, ...]] = {
    "symmetry": SYMMETRY_MODES,
    "backend": BACKEND_MODES,
    "plan": PLAN_MODES,
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
        choices = _OPTION_CHOICES.get(option, (value,))
        if value not in choices:
            *names, last = map(repr, choices)
            comma = "," if len(names) > 1 else ""
            raise ServiceProtocolError(
                f"{option} must be {', '.join(names)}{comma} or {last}"
            )
        spec[option] = value
    return spec


#: The engine flags a job carries into its payload (``repro.cli run``
#: and ``all`` take them too), as ``add_argument`` names and options.
_ENGINE_FLAGS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("--workers", dict(
        type=int, metavar="N",
        help="worker processes for bounded checks (default: REPRO_WORKERS or 1)",
    )),
    ("--symmetry", dict(
        choices=SYMMETRY_MODES,
        help="sweep every universe instance (full, the default) or one "
        "representative per domain-permutation orbit (orbits); orbit "
        "sweeps fall back to full where the reduction would be unsound",
    )),
    ("--backend", dict(
        choices=BACKEND_MODES,
        help="execution backend for bounded checks: interpret the object "
        "datamodel directly (object, the default), run compiled joins "
        "over interned integer ids (kernel), or run the kernel with "
        "chases of 128 facts or more inside SQLite (sql); verdicts and "
        "witnesses are identical either way",
    )),
    ("--shards", dict(
        type=int, metavar="N",
        help="partition every bounded sweep's outer loop into N "
        "content-addressed shards (REPRO_SHARDS)",
    )),
    ("--shard-id", dict(
        type=int, metavar="K",
        help="sweep only shard K of --shards in this process (reports "
        "then cover that shard alone); omit to run/claim every shard "
        "here (REPRO_SHARD_ID)",
    )),
    ("--deadline", dict(
        type=float, metavar="SECONDS",
        help="wall-clock budget per bounded check; sweeps that outlive it "
        "report partial verdicts (exit code 3 instead of crashing)",
    )),
    ("--max-instances", dict(
        type=int, metavar="N",
        help="cap on universe instances per sweep before reporting partially",
    )),
    ("--max-chase-steps", dict(
        type=int, metavar="N",
        help="cap on chase firings per process before reporting partially",
    )),
    ("--plan", dict(
        choices=PLAN_MODES,
        help="evaluation plan for mapping expressions (algebra checks): "
        "let the cost model pick (auto, the default), always "
        "materialize compositions with MinGen first (materialize), or "
        "avoid materializing via staged chases / per-pair membership "
        "checks (membership); verdicts and reports are identical "
        "either way (REPRO_PLAN)",
    )),
)

#: Engine options a front end's arguments may carry into a payload.
_PAYLOAD_OPTIONS = tuple(flag[2:].replace("-", "_") for flag, _ in _ENGINE_FLAGS)


def add_engine_flags(parser: Any) -> None:
    """Define the per-job engine flags on an argparse *parser*."""
    for flag, options in _ENGINE_FLAGS:
        parser.add_argument(flag, default=None, **options)


def add_job_flags(parser: Any, *, target_required: bool = True) -> None:
    """Define the flags of one job on an argparse *parser*: everything
    :func:`build_payload` reads.  ``repro.cli check`` and
    ``repro.service submit`` both build their job flags here; *submit*
    passes *target_required* False, since ``--payload`` may stand in
    for the target."""
    parser.add_argument("kind", choices=JOB_KINDS)
    parser.add_argument(
        "target",
        **({} if target_required else {"nargs": "?", "default": None}),
        help="experiment id (experiment), catalog mapping name, or a "
        "mapping expression like 'compose(Union, Decomposition)' "
        "(algebra)",
    )
    parser.add_argument(
        "--reverse",
        default=None,
        help="reverse mapping (roundtrip) or reverse expression "
        "(algebra --check inverse)",
    )
    parser.add_argument(
        "--check",
        choices=ALGEBRA_CHECKS,
        default=None,
        help="which bounded check an algebra job runs over its "
        "expression (default: invertibility)",
    )
    parser.add_argument(
        "--explain-plan",
        action="store_true",
        help="append the chosen evaluation plan — rewrite trace, cost "
        "estimates vs. actuals — to an algebra report",
    )
    parser.add_argument(
        "--domain", default=None, help="comma-separated constants (default a,b)"
    )
    parser.add_argument("--max-facts", type=int, default=None)
    add_engine_flags(parser)


def build_payload(arguments: Any) -> Dict[str, Any]:
    """The job payload a ``repro.cli check`` or ``repro.service submit``
    command line describes: its *arguments*, parsed by a parser that
    :func:`add_job_flags` built."""
    payload: Dict[str, Any] = {"kind": arguments.kind}
    if arguments.kind == "experiment":
        payload["experiment"] = arguments.target
        return payload
    if arguments.kind == "algebra":
        payload["expression"] = arguments.target
        if arguments.check:
            payload["check"] = arguments.check
        if arguments.explain_plan:
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
        value = getattr(arguments, option)
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
    "add_engine_flags",
    "add_job_flags",
    "build_payload",
    "exit_code_for",
    "job_key",
    "normalize_job",
    "resolve_mapping",
]

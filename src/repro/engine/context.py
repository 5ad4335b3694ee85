"""The engine's ambient state: one per-thread context over the process defaults.

A check scopes some values instead of passing them down every call:
its budget and the coverage events its partial verdicts record, the
backend, the ground-key flag of orbit sweeps, and the budget kinds it
degrades to partial verdicts beyond the governed ones.  The parallel
runner publishes its shared payload and task the same way, and the
sql backend keeps its connection here.  Each is a field of the one
:class:`EngineContext`.

The context is thread-local, because the service daemon runs
concurrent jobs on threads and no job may see another's choices.
Fields default to class attributes, so a read such as
``CONTEXT.budget`` stays a single attribute load on the hot paths
that make it: the chase, homomorphism search and backend dispatch.

Those class attributes are also the process-wide engine defaults.
Each default has one ``REPRO_*`` knob (:data:`KNOBS`), parsed once,
when this module is imported; an unparsable value keeps the built-in
default, with one RuntimeWarning naming it.  The CLI's and the
daemon's flags move the defaults through :func:`set_defaults`, the one
setter.  ``REPRO_FAULTS`` is not a default: :mod:`repro.engine.faults`
re-reads it at use, so a test can switch fault schedules in-process.

:func:`scope` sets fields for a block on this thread only; a field the
thread had not set is deleted on exit, so the thread follows the
process default again.  :func:`snapshot` captures the :data:`INHERITED`
fields, which :func:`repro.engine.parallel._worker_init` installs in
every pool worker: a pool may fork a replacement worker from its own
handler thread, whose context holds the defaults.  A new per-thread
field is one line in :class:`EngineContext`, plus its name in
:data:`INHERITED` when pool workers should see it; a new default is
one more line there and one in :data:`KNOBS`.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple


class EngineContext(threading.local):
    """This thread's engine fields (see the module docstring)."""

    budget: Any = None  # the ambient Budget; None: unlimited
    ground_keys: bool = False  # key ground instances by canonical form
    governed: FrozenSet[str] = frozenset()  # kinds governed beyond GOVERNED_KINDS
    shared: Any = None  # the payload the runner's current map publishes
    task: Any = None  # a pool worker's task function
    in_worker: bool = False  # this thread runs a pool worker's tasks
    sql_runtime: Any = None  # this thread's SQLite connection and caches
    # -- the process defaults (KNOBS, set_defaults) --
    backend: str = "object"
    store: Any = None  # the memo caches' on-disk VerdictStore
    workers: int = 1
    task_timeout: Optional[float] = 300.0  # None: no per-chunk timeout
    on_fault: str = "retry"
    # the budget limits of a sweep that runs with no ambient budget
    deadline: Optional[float] = None
    max_instances: Optional[int] = None
    max_chase_steps: Optional[int] = None
    max_rss_mb: Optional[float] = None
    checkpoint: Optional[str] = None  # the default journal's path
    resume: bool = False
    journal: Any = None  # that CheckpointJournal, opened by set_defaults
    symmetry: str = "full"
    shards: int = 1
    shard_id: Optional[int] = None
    sql_db: Optional[str] = None  # None: per-process :memory:
    plan: str = "auto"

    def __init__(self) -> None:
        self.events: List[Any] = []  # coverage events, in recording order


CONTEXT = EngineContext()

#: The fields a forked pool worker inherits from the sweeping thread.
INHERITED = ("budget", "backend", "ground_keys", "governed", "store")


@contextmanager
def scope(**fields: Any) -> Iterator[None]:
    """Set *fields* on this thread's context for the enclosed block.

    Each field gets its previous value back on exit, so scopes nest; a
    field this thread had not set is deleted instead.  An unknown field
    name raises AttributeError before anything is set.
    """
    own = vars(CONTEXT)
    for name in fields:
        getattr(CONTEXT, name)
    previous = {name: own[name] for name in fields if name in own}
    own.update(fields)
    try:
        yield
    finally:
        for name in fields:
            if name in previous:
                own[name] = previous[name]
            else:
                own.pop(name, None)


def snapshot() -> Dict[str, Any]:
    """This thread's values of the :data:`INHERITED` fields."""
    return {name: getattr(CONTEXT, name) for name in INHERITED}


# -- the process defaults -------------------------------------------------
#
# A parser takes a knob's text, or a value that is already typed (from
# argparse, or returned by set_defaults), and raises ValueError for
# anything else.


def _count(value: Any) -> int:
    return max(1, int(value))


def _number(kind: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None or value == "" else kind(value)


def _whole(value: Any) -> int:
    return int(float(value))  # a cap given as "1e4" or "4.0" still counts


_seconds = _number(float)


def _timeout(value: Any) -> Optional[float]:
    seconds = _seconds(value)
    return seconds if seconds is not None and seconds > 0 else None


def _path(value: Any) -> Optional[str]:
    return None if value is None else os.fspath(value).strip() or None


def _flag(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() not in ("", "0", "false")
    return bool(value)


def _choice(*modes: str) -> Callable[[Any], str]:
    def parse(value: Any) -> str:
        mode = str(value).strip().lower()
        if mode not in modes:
            raise ValueError(f"expected one of {modes}")
        return mode

    return parse


def _store(value: Any) -> Any:
    """A path opens a VerdictStore (the file is created on first use);
    a store or None is kept."""
    if not isinstance(value, (str, os.PathLike)):
        return value
    path = _path(value)
    if path is None:
        return None
    from repro.engine.store import VerdictStore

    return VerdictStore(path)


#: The modes of the backend, symmetry and plan defaults; the CLI's and
#: the service's flags and job specs take their choices from these.
BACKEND_MODES = ("object", "kernel", "sql")
SYMMETRY_MODES = ("full", "orbits")
PLAN_MODES = ("auto", "materialize", "membership")

#: ``REPRO_*`` knob -> (field, parser); set_defaults parses with these.
KNOBS: Dict[str, Tuple[str, Callable[[Any], Any]]] = {
    "REPRO_BACKEND": ("backend", _choice(*BACKEND_MODES)),
    "REPRO_STORE": ("store", _store),
    "REPRO_WORKERS": ("workers", _count),
    "REPRO_TASK_TIMEOUT": ("task_timeout", _timeout),
    "REPRO_ON_FAULT": ("on_fault", _choice("retry", "raise")),
    "REPRO_DEADLINE": ("deadline", _seconds),
    "REPRO_MAX_INSTANCES": ("max_instances", _number(_whole)),
    "REPRO_MAX_CHASE_STEPS": ("max_chase_steps", _number(_whole)),
    "REPRO_MAX_RSS_MB": ("max_rss_mb", _seconds),
    "REPRO_CHECKPOINT": ("checkpoint", _path),
    "REPRO_RESUME": ("resume", _flag),
    "REPRO_SYMMETRY": ("symmetry", _choice(*SYMMETRY_MODES)),
    "REPRO_SHARDS": ("shards", _count),
    "REPRO_SHARD_ID": ("shard_id", _number(int)),
    "REPRO_SQL_DB": ("sql_db", _path),
    "REPRO_PLAN": ("plan", _choice(*PLAN_MODES)),
}

_PARSERS: Dict[str, Callable[[Any], Any]] = dict(KNOBS.values())


def set_defaults(**fields: Any) -> Dict[str, Any]:
    """Make *fields* the process defaults, which every thread (and pool
    worker) follows outside a :func:`scope` of its own.

    Values are parsed like their knobs.  An unknown field raises
    TypeError, and a value its parser rejects ValueError, before
    anything is set.  Returns the previous defaults of *fields*, so
    that ``set_defaults(**previous)`` puts them back.
    """
    parsed: Dict[str, Any] = {}
    for name, value in fields.items():
        if name not in _PARSERS:
            raise TypeError(f"unknown engine default {name!r}")
        try:
            parsed[name] = _PARSERS[name](value)
        except (TypeError, ValueError) as error:
            raise ValueError(f"bad engine default {name}={value!r}: {error}") from None
    previous = {name: getattr(EngineContext, name) for name in parsed}
    for name, value in parsed.items():
        setattr(EngineContext, name, value)
    if "checkpoint" in parsed or "resume" in parsed:
        from repro.engine.checkpoint import CheckpointJournal

        path = EngineContext.checkpoint
        EngineContext.journal = path and CheckpointJournal(path, resume=EngineContext.resume)
    return previous


def environment_defaults(environ: Mapping[str, str]) -> Dict[str, Any]:
    """The defaults the ``REPRO_*`` knobs in *environ* ask for.  An empty
    knob counts as unset; one that does not parse is left out, with a
    RuntimeWarning naming it."""
    found: Dict[str, Any] = {}
    for knob, (name, parse) in KNOBS.items():
        raw = environ.get(knob, "")
        if not raw.strip():
            continue
        try:
            found[name] = parse(raw)
        except (TypeError, ValueError) as error:
            warnings.warn(
                f"{knob}={raw!r} is not valid ({error}); "
                f"using the default {getattr(EngineContext, name)!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return found


# Last, so that the store and journal modules this may import find
# the context complete.
set_defaults(**environment_defaults(os.environ))


__all__ = [
    "BACKEND_MODES",
    "CONTEXT",
    "EngineContext",
    "INHERITED",
    "KNOBS",
    "PLAN_MODES",
    "SYMMETRY_MODES",
    "environment_defaults",
    "scope",
    "set_defaults",
    "snapshot",
]

"""The engine's ambient state: one per-thread context.

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

:func:`scope` sets fields for a block and restores them on exit.
:func:`snapshot` captures the :data:`INHERITED` fields, which
:func:`repro.engine.parallel._worker_init` installs in every pool
worker: a pool may fork a replacement worker from its own handler
thread, whose context holds the defaults.  A new per-thread field is
one line in :class:`EngineContext`, plus its name in
:data:`INHERITED` when pool workers should see it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterator, List, Optional


class EngineContext(threading.local):
    """This thread's engine fields (see the module docstring)."""

    budget: Any = None  # the ambient Budget; None: unlimited
    backend: Optional[str] = None  # None: follow the process default
    ground_keys: bool = False  # key ground instances by canonical form
    governed: FrozenSet[str] = frozenset()  # kinds governed beyond GOVERNED_KINDS
    shared: Any = None  # the payload the runner's current map publishes
    task: Any = None  # a pool worker's task function
    in_worker: bool = False  # this thread runs a pool worker's tasks
    sql_runtime: Any = None  # this thread's SQLite connection and caches

    def __init__(self) -> None:
        self.events: List[Any] = []  # coverage events, in recording order


CONTEXT = EngineContext()

#: The fields a forked pool worker inherits from the sweeping thread.
INHERITED = ("budget", "backend", "ground_keys", "governed")


@contextmanager
def scope(**fields: Any) -> Iterator[None]:
    """Set *fields* on this thread's context for the enclosed block.

    Each field gets its previous value back on exit, so scopes nest.
    An unknown field name raises AttributeError before anything is set.
    """
    previous = {name: getattr(CONTEXT, name) for name in fields}
    vars(CONTEXT).update(fields)
    try:
        yield
    finally:
        vars(CONTEXT).update(previous)


def snapshot() -> Dict[str, Any]:
    """This thread's values of the :data:`INHERITED` fields."""
    return {name: getattr(CONTEXT, name) for name in INHERITED}


__all__ = ["CONTEXT", "EngineContext", "INHERITED", "scope", "snapshot"]

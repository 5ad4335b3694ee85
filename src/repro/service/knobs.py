"""The service's knobs: one table, one reader, one rule.

The daemon reads the ``REPRO_SERVICE_*`` knobs and the thin client the
``REPRO_SERVICE_URL`` / ``REPRO_SERVICE_STATE`` and ``REPRO_CLIENT_*``
ones, each through :func:`knob`, when the value is needed and no flag
or explicit argument gave it.  An empty knob counts as unset.  A value
that does not parse raises :class:`~repro.errors.ServiceError` naming
the knob, which every ``repro.service`` verb (and ``repro.cli check
--server``) turns into exit code 2.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ServiceError


def _natural(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _seconds(raw: str) -> float:
    value = float(raw)
    if value < 0:
        raise ValueError(raw)
    return value


_INTEGER = (_natural, "a non-negative integer")
_NUMBER = (_seconds, "a non-negative number")
_TEXT = (str, "text")

#: knob -> (parser, what the parser accepts, default).
SERVICE_KNOBS: Dict[str, Tuple[Callable[[str], Any], str, Optional[Any]]] = {
    "REPRO_SERVICE_HOST": (*_TEXT, "127.0.0.1"),
    "REPRO_SERVICE_PORT": (*_INTEGER, 8642),
    "REPRO_SERVICE_MAX_JOBS": (*_INTEGER, 2),
    "REPRO_SERVICE_JOB_DEADLINE": (*_NUMBER, None),
    "REPRO_SERVICE_JOB_RETRIES": (*_INTEGER, 2),
    "REPRO_SERVICE_STATE": (*_TEXT, ".repro-service"),
    "REPRO_SERVICE_URL": (*_TEXT, None),
    "REPRO_CLIENT_RETRIES": (*_INTEGER, 3),
    "REPRO_CLIENT_BACKOFF": (*_NUMBER, 0.1),
    "REPRO_CLIENT_BACKOFF_MAX": (*_NUMBER, 2.0),
    "REPRO_CLIENT_BREAKER_THRESHOLD": (*_INTEGER, 5),
    "REPRO_CLIENT_BREAKER_COOLDOWN": (*_NUMBER, 5.0),
}


def knob(name: str, explicit: Any = None) -> Any:
    """*explicit* when it is not None (a flag or an argument wins),
    else the knob *name* read from the environment now, else its
    default."""
    if explicit is not None:
        return explicit
    parse, accepted, default = SERVICE_KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ServiceError(f"{name}={raw!r} is not {accepted}") from None


__all__ = ["SERVICE_KNOBS", "knob"]

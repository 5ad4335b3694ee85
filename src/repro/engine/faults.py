"""The unified fault-injection plane.

Fault tolerance you cannot rehearse is fault tolerance you do not
have.  This module is one registry of named **fault points** — places
in the engine and the service that agree to ask "should I fail
here?" — driven by one spec.

Fault points (see :data:`FAULT_POINTS`)::

    store.read      a verdict-store read fails (counted, served as a miss)
    store.write     a verdict-store flush fails (counted, entries re-buffered)
    journal.flush   a checkpoint-journal flush is dropped (counted)
    worker.kill     a pool worker SIGKILLs itself picking up a task
    worker.delay    a pool worker sleeps before a task
    budget.expire   a Budget behaves as if its deadline passed
    daemon.kill     the service daemon SIGKILLs itself at a job boundary
    client.drop     the service client's connection fails before sending
    client.reset    the connection drops after the server acted (response lost)
    sql.exec        a SQL-backend statement fails (counted, retried once)

Configuration is a single ``REPRO_FAULTS`` spec — semicolon-separated
clauses of ``point:key=value,...`` — or the programmatic
:func:`fault_scope`::

    REPRO_FAULTS="store.read:p=0.25,seed=7;worker.kill:task=3"

    with fault_scope("journal.flush:every=2"):
        ...

Trigger parameters (all optional; a bare point always fires):

``at=N``
    fire on exactly the N-th occurrence of the point (1-based);
``every=N``
    fire on every N-th occurrence;
``p=F`` (+ ``seed=N``)
    fire with probability *F* per occurrence, from a dedicated
    :class:`random.Random` seeded by ``seed`` and the point name —
    the schedule is deterministic and replayable;
``after=N``
    fire on every occurrence past the N-th;
``times=N``
    stop after N injections regardless of trigger.

Point-specific parameters: ``task=I|*`` restricts ``worker.*`` points
to one dispatch index (or any, with ``*``), ``seconds=F``
sets the ``worker.delay`` sleep, and ``resource=instances|chase_steps``
names the counter ``budget.expire`` watches (with ``after=N`` as its
threshold).

Malformed specs — unknown points or keys, bad numbers, probabilities
outside [0, 1] — raise :class:`~repro.errors.FaultSpecError` the first
time the plane is consulted, so a typo in a chaos schedule aborts the
run instead of silently injecting nothing.

Every injection bumps ``faults_injected`` and a per-point
``fault_<point>`` counter on :func:`~repro.engine.instrumentation.engine_stats`,
so chaos runs can assert that the schedule actually executed.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import FaultSpecError

#: Every named fault point the engine and service agree to consult.
FAULT_POINTS: Dict[str, str] = {
    "store.read": "a verdict-store read fails and is served as a miss",
    "store.write": "a verdict-store flush fails and entries stay buffered",
    "journal.flush": "a checkpoint-journal flush is dropped",
    "worker.kill": "a pool worker SIGKILLs itself when picking up a task",
    "worker.delay": "a pool worker sleeps before running a task",
    "budget.expire": "a Budget behaves as if its deadline passed",
    "daemon.kill": "the service daemon SIGKILLs itself at a job boundary",
    "client.drop": "the client connection fails before the request is sent",
    "client.reset": "the connection resets after the server acted",
    "sql.exec": "a SQL-backend statement fails and is retried once",
}

_TRIGGER_KEYS = ("at", "every", "p", "after")
_PARAM_KEYS = frozenset(
    {"at", "every", "p", "after", "seed", "times", "task", "seconds", "resource"}
)
_RESOURCES = ("instances", "chase_steps")

#: Env vars the plane is built from; a change to any rebuilds it.
ENV_VARS = ("REPRO_FAULTS",)


def _bad(spec: str, clause: str, why: str, **context: object) -> FaultSpecError:
    return FaultSpecError(
        f"invalid fault spec {clause!r}: {why}", spec=spec, clause=clause, **context
    )


class FaultRule:
    """One configured fault point: trigger parameters plus the mutable
    occurrence/fire counters that implement the schedule."""

    __slots__ = (
        "point",
        "at",
        "every",
        "p",
        "after",
        "seed",
        "times",
        "task",
        "seconds",
        "resource",
        "occurrences",
        "fires",
        "_rng",
    )

    def __init__(
        self,
        point: str,
        *,
        at: Optional[int] = None,
        every: Optional[int] = None,
        p: Optional[float] = None,
        after: Optional[int] = None,
        seed: int = 0,
        times: Optional[int] = None,
        task: Union[int, str, None] = None,
        seconds: float = 0.0,
        resource: Optional[str] = None,
    ) -> None:
        self.point = point
        self.at = at
        self.every = every
        self.p = p
        self.after = after
        self.seed = seed
        self.times = times
        self.task = task
        self.seconds = seconds
        self.resource = resource
        self.occurrences = 0
        self.fires = 0
        # Seeding with a string derived from (seed, point) keeps the
        # schedule deterministic across processes and python versions
        # while decorrelating the points that share one seed.
        self._rng = random.Random(f"{seed}:{point}")

    def decide(self, index: Optional[int] = None) -> bool:
        """Count one occurrence of the point and decide whether to fire."""
        if self.task is not None:
            if index is None:
                return False
            if self.task != "*" and index != self.task:
                return False
        self.occurrences += 1
        if self.times is not None and self.fires >= self.times:
            return False
        if self.at is not None:
            fire = self.occurrences == self.at
        elif self.every is not None:
            fire = self.occurrences % self.every == 0
        elif self.p is not None:
            fire = self._rng.random() < self.p
        elif self.after is not None:
            fire = self.occurrences > self.after
        else:
            fire = True
        if fire:
            self.fires += 1
        return fire

    def __repr__(self) -> str:
        params = ", ".join(
            f"{key}={getattr(self, key)!r}"
            for key in ("at", "every", "p", "after", "times", "task", "seconds", "resource")
            if getattr(self, key) not in (None, 0.0)
        )
        return f"FaultRule({self.point!r}{', ' + params if params else ''})"


def _parse_params(
    spec: str, clause: str, point: str, raw_params: List[str]
) -> FaultRule:
    params: Dict[str, object] = {}
    for raw in raw_params:
        raw = raw.strip()
        if not raw:
            continue
        key, sep, value = raw.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise _bad(spec, clause, f"parameter {raw!r} is not key=value", point=point)
        if key not in _PARAM_KEYS:
            raise _bad(
                spec,
                clause,
                f"unknown parameter {key!r} (known: {', '.join(sorted(_PARAM_KEYS))})",
                point=point,
            )
        if key in ("at", "every", "after", "seed", "times"):
            try:
                number = int(value)
            except ValueError:
                raise _bad(spec, clause, f"{key}={value!r} is not an integer", point=point)
            if number < 0 or (key in ("at", "every", "times") and number < 1):
                raise _bad(spec, clause, f"{key}={number} is out of range", point=point)
            params[key] = number
        elif key in ("p", "seconds"):
            try:
                number = float(value)
            except ValueError:
                raise _bad(spec, clause, f"{key}={value!r} is not a number", point=point)
            if key == "p" and not 0.0 <= number <= 1.0:
                raise _bad(spec, clause, f"p={number} must be within [0, 1]", point=point)
            if key == "seconds" and number < 0:
                raise _bad(spec, clause, f"seconds={number} must be >= 0", point=point)
            params[key] = number
        elif key == "task":
            if value == "*":
                params[key] = "*"
            else:
                try:
                    params[key] = int(value)
                except ValueError:
                    raise _bad(
                        spec, clause, f"task={value!r} is not an index or '*'", point=point
                    )
        else:  # resource
            if value not in _RESOURCES:
                raise _bad(
                    spec,
                    clause,
                    f"resource={value!r} is not one of {', '.join(_RESOURCES)}",
                    point=point,
                )
            params[key] = value
    if sum(1 for key in _TRIGGER_KEYS if key in params) > 1:
        raise _bad(
            spec,
            clause,
            "at=/every=/p=/after= are mutually exclusive triggers",
            point=point,
        )
    return FaultRule(point, **params)  # type: ignore[arg-type]


def parse_spec(spec: str) -> Dict[str, FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec into ``{point: rule}``.

    Raises :class:`~repro.errors.FaultSpecError` on any malformed
    clause; a later clause for the same point overrides an earlier one.
    """
    rules: Dict[str, FaultRule] = {}
    for chunk in spec.replace("\n", ";").split(";"):
        clause = chunk.strip()
        if not clause:
            continue
        point, _, params = clause.partition(":")
        point = point.strip()
        if point not in FAULT_POINTS:
            raise _bad(
                spec,
                clause,
                f"unknown fault point {point!r} "
                f"(known: {', '.join(sorted(FAULT_POINTS))})",
            )
        rules[point] = _parse_params(spec, clause, point, params.split(","))
    return rules


class FaultPlane:
    """An installed set of fault rules, one per configured point."""

    __slots__ = ("rules",)

    def __init__(self, rules: Optional[Mapping[str, FaultRule]] = None) -> None:
        self.rules: Dict[str, FaultRule] = dict(rules or {})

    @classmethod
    def from_env(cls) -> "FaultPlane":
        """The plane the ``REPRO_FAULTS`` spec describes."""
        return cls(parse_spec(os.environ.get("REPRO_FAULTS", "")))

    @classmethod
    def from_spec(
        cls, spec: Union[str, Mapping[str, Mapping[str, object]], None]
    ) -> "FaultPlane":
        if spec is None:
            return cls()
        if isinstance(spec, str):
            return cls(parse_spec(spec))
        rules: Dict[str, FaultRule] = {}
        for point, params in spec.items():
            if point not in FAULT_POINTS:
                raise FaultSpecError(
                    f"unknown fault point {point!r}", spec=str(spec), point=point
                )
            rules[point] = FaultRule(point, **dict(params))
        return cls(rules)

    def rule(self, point: str) -> Optional[FaultRule]:
        return self.rules.get(point)

    def fire(self, point: str, index: Optional[int] = None) -> Optional[FaultRule]:
        """Consult the plane at *point*; the rule when it fires, else None."""
        rule = self.rules.get(point)
        if rule is None or not rule.decide(index):
            return None
        count_injection(point)
        return rule

    def __repr__(self) -> str:
        return f"FaultPlane({sorted(self.rules)!r})"


# -- the active plane ------------------------------------------------------
#
# Programmatic scopes (a module-level stack, inherited by forked
# workers) win over the env-built plane, mirroring how use_store beats
# the default store.  The env plane is cached on a
# fingerprint of the fault env vars so per-rule occurrence counters
# survive across fire() calls within one schedule, yet monkeypatched
# env changes in tests rebuild (and so reset) it immediately.

_SCOPED: List[FaultPlane] = []
_ENV_PLANE = FaultPlane()
_ENV_FINGERPRINT: Optional[Tuple[Optional[str], ...]] = None


def active_plane() -> FaultPlane:
    """The fault plane governing this process right now."""
    if _SCOPED:
        return _SCOPED[-1]
    global _ENV_PLANE, _ENV_FINGERPRINT
    fingerprint = tuple(os.environ.get(name) for name in ENV_VARS)
    if fingerprint != _ENV_FINGERPRINT:
        _ENV_PLANE = FaultPlane.from_env()
        _ENV_FINGERPRINT = fingerprint
    return _ENV_PLANE


@contextmanager
def fault_scope(
    spec: Union[str, Mapping[str, Mapping[str, object]], None],
) -> Iterator[FaultPlane]:
    """Install a fault schedule for the enclosed block.

    *spec* is a ``REPRO_FAULTS``-style string, a ``{point: {param:
    value}}`` mapping, or None (no faults — useful to mask the env).
    Each entry gets fresh occurrence counters, so the same scope
    replays the same schedule.
    """
    plane = FaultPlane.from_spec(spec)
    _SCOPED.append(plane)
    try:
        yield plane
    finally:
        _SCOPED.remove(plane)


def fire(point: str, index: Optional[int] = None) -> Optional[FaultRule]:
    """Consult the active plane at *point*.

    Returns the matched :class:`FaultRule` when the fault should be
    injected (so callers can read e.g. ``rule.seconds``) and None
    otherwise.  *index* is the dispatch index for task-scoped
    ``worker.*`` rules.
    """
    if point not in FAULT_POINTS:
        raise KeyError(f"unknown fault point {point!r}")
    plane = active_plane()
    if not plane.rules:
        return None
    return plane.fire(point, index)


def expire_rule() -> Tuple[Optional[str], int]:
    """The ``budget.expire`` configuration as ``(resource, after)``.

    ``(None, 0)`` when unconfigured; the default resource is
    ``"instances"``.  :class:`~repro.engine.budget.Budget` snapshots
    this at construction so each budget counts its own charges.
    """
    rule = active_plane().rule("budget.expire")
    if rule is None:
        return None, 0
    return rule.resource or "instances", rule.after or 0


def count_injection(point: str) -> None:
    """Record one injection at *point* on the engine stats counters."""
    from repro.engine.instrumentation import engine_stats

    stats = engine_stats()
    stats.bump("faults_injected")
    stats.bump("fault_" + point.replace(".", "_"))


__all__ = [
    "ENV_VARS",
    "FAULT_POINTS",
    "FaultPlane",
    "FaultRule",
    "active_plane",
    "count_injection",
    "expire_rule",
    "fault_scope",
    "fire",
    "parse_spec",
]

"""Resource governance for bounded checks.

The paper's decision procedures are inherently exponential, so every
sweep the library runs *can* blow up; a :class:`Budget` turns "blow up"
into "stop cleanly and report how far we got".  One budget is created
per check (or inherited from the ambient one) and carries:

* a wall-clock **deadline** (absolute, monotonic — comparable across
  forked workers, which share the parent's monotonic clock);
* an **instance cap** (`max_instances`) charged by the universe
  runner as results are merged;
* a **chase-step cap** (`max_chase_steps`) charged deep inside the
  standard and disjunctive chases;
* an optional **RSS watermark** (`max_rss_mb`), sampled from
  ``/proc/self/status`` where available.

Tripping any limit raises :class:`~repro.errors.BudgetExceeded` (the
deadline raises the :class:`~repro.errors.DeadlineExceeded` subclass);
checkers catch these at their merge loop and degrade to a *partial
verdict* whose ``coverage`` field records why the sweep stopped.

The module also hosts the ambient-budget plumbing (each runner worker
installs the sweep's budget, the chase reads it through
:func:`current_budget`), the per-thread *coverage event* registry the
CLI maps to exit codes, the rule for which errors degrade to partial
verdicts (:func:`governed_coverage`), and :class:`SweepVerdict`, a
tuple-compatible verdict that lets legacy ``ok, violators = sweep(...)``
callers coexist with coverage-aware ones.

Deterministic fault injection (for tests): the ``budget.expire`` point
of the unified fault plane (:mod:`repro.engine.faults`), e.g.
``REPRO_FAULTS="budget.expire:resource=chase_steps,after=N"``, makes
the budget behave as if its deadline passed after exactly N charges of
that resource, regardless of wall-clock time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.engine import faults
from repro.engine.context import CONTEXT, scope
from repro.errors import BudgetExceeded, DeadlineExceeded, WorkerFault

_RSS_CHECK_PERIOD = 256


def _read_rss_mb() -> Optional[float]:
    """Resident set size in MiB from /proc, or None off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


class Budget:
    """Mutable per-check resource budget (see module docstring).

    Counters are process-local: a forked worker charges its own copy,
    so ``max_chase_steps`` bounds each worker's chase work while the
    deadline — an absolute monotonic timestamp — expires everywhere
    simultaneously.
    """

    __slots__ = (
        "deadline",
        "deadline_at",
        "started_at",
        "max_instances",
        "max_chase_steps",
        "max_rss_mb",
        "instances_checked",
        "chase_steps",
        "_checks",
        "_expire_resource",
        "_expire_after",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_instances: Optional[int] = None,
        max_chase_steps: Optional[int] = None,
        max_rss_mb: Optional[float] = None,
    ) -> None:
        self.deadline = deadline
        self.started_at = time.monotonic()
        self.deadline_at = (
            self.started_at + deadline if deadline is not None else None
        )
        self.max_instances = max_instances
        self.max_chase_steps = max_chase_steps
        self.max_rss_mb = max_rss_mb
        self.instances_checked = 0
        self.chase_steps = 0
        self._checks = 0
        self._expire_resource, self._expire_after = faults.expire_rule()

    # -- probes ------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def _raise_deadline(self) -> None:
        raise DeadlineExceeded(
            f"wall-clock deadline of {self.deadline}s passed "
            f"after {self.elapsed():.3f}s",
            kind="deadline",
            limit=self.deadline,
            consumed=round(self.elapsed(), 3),
        )

    def check(self) -> None:
        """Raise if the deadline passed or the RSS watermark is hit."""
        if self.deadline_at is not None and time.monotonic() > self.deadline_at:
            self._raise_deadline()
        self._checks += 1
        if self.max_rss_mb is not None and self._checks % _RSS_CHECK_PERIOD == 0:
            rss = _read_rss_mb()
            if rss is not None and rss > self.max_rss_mb:
                raise BudgetExceeded(
                    f"RSS {rss:.0f} MiB exceeds watermark {self.max_rss_mb} MiB",
                    kind="rss",
                    limit=self.max_rss_mb,
                    consumed=round(rss, 1),
                )

    # -- charges -----------------------------------------------------

    def charge_instances(self, n: int = 1) -> None:
        """Charge *n* universe instances; raises once over the cap."""
        self.check()
        if (
            self.max_instances is not None
            and self.instances_checked + n > self.max_instances
        ):
            raise BudgetExceeded(
                f"instance cap of {self.max_instances} reached",
                kind="instances",
                limit=self.max_instances,
                consumed=self.instances_checked,
            )
        self.instances_checked += n
        if (
            self._expire_resource == "instances"
            and self.instances_checked >= self._expire_after
        ):
            faults.count_injection("budget.expire")
            self._raise_deadline()

    def charge_chase_steps(self, n: int = 1) -> None:
        """Charge *n* chase firings; raises once over the cap."""
        self.check()
        if (
            self.max_chase_steps is not None
            and self.chase_steps + n > self.max_chase_steps
        ):
            raise BudgetExceeded(
                f"chase-step cap of {self.max_chase_steps} reached",
                kind="chase_steps",
                limit=self.max_chase_steps,
                consumed=self.chase_steps,
            )
        self.chase_steps += n
        if (
            self._expire_resource == "chase_steps"
            and self.chase_steps >= self._expire_after
        ):
            faults.count_injection("budget.expire")
            self._raise_deadline()

    # -- external interruption ---------------------------------------

    def expire_now(self) -> None:
        """Force the deadline into the past, from any thread.

        The next :meth:`check` anywhere this budget is consulted raises
        :class:`~repro.errors.DeadlineExceeded`, so the sweep flushes
        its checkpoint journal and degrades to a partial verdict — the
        same path a real deadline takes.  The service daemon uses this
        to drain in-flight jobs on SIGTERM and to cancel running jobs.
        """
        if self.deadline is None:
            self.deadline = round(self.elapsed(), 3)
        self.deadline_at = time.monotonic() - 1.0

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("deadline", self.deadline),
                ("max_instances", self.max_instances),
                ("max_chase_steps", self.max_chase_steps),
                ("max_rss_mb", self.max_rss_mb),
            )
            if value is not None
        )
        return f"Budget({limits or 'unlimited'})"


# -- the ambient budget ---------------------------------------------------
#
# The ambient budget and the coverage-event registry are fields of the
# per-thread engine context (:mod:`repro.engine.context`): the service
# daemon runs concurrent jobs on threads, each with its own budget, and
# one job's partial verdict must not leak into another job's exit code.


def current_budget() -> Optional[Budget]:
    """The budget installed by the innermost checker (or pool worker)."""
    return CONTEXT.budget


def default_budget() -> Optional[Budget]:
    """A fresh budget with the process default limits (``REPRO_DEADLINE``
    & co., or the CLI's ``--deadline`` & co. through
    :func:`~repro.engine.context.set_defaults`), or None when none is
    set.  A sweep with no ambient budget runs under one of these."""
    limits = {
        name: getattr(CONTEXT, name)
        for name in ("deadline", "max_instances", "max_chase_steps", "max_rss_mb")
    }
    if all(value is None for value in limits.values()):
        return None
    return Budget(**limits)


@contextmanager
def use_budget(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install *budget* as the ambient budget for the enclosed check.

    A ``None`` budget leaves the ambient one untouched, so nested
    checkers inherit their caller's budget by default.
    """
    if budget is None:
        yield CONTEXT.budget
        return
    with scope(budget=budget):
        yield budget


# -- coverage events (partial-verdict registry) ---------------------------

COVERAGE_EXHAUSTIVE = "exhaustive"
COVERAGE_ORDER = ("exhaustive", "budget", "deadline", "faulted")


def worst_coverage(*statuses: str) -> str:
    """Combine per-phase coverage statuses (later in order = worse)."""
    return max(statuses, key=COVERAGE_ORDER.index, default=COVERAGE_EXHAUSTIVE)


@dataclass(frozen=True)
class CoverageEvent:
    """One checker's non-exhaustive outcome, for CLI exit codes."""

    phase: str
    coverage: str
    detail: str = ""
    instances_checked: int = 0


def record_coverage(
    phase: str, coverage: str, detail: str = "", instances_checked: int = 0
) -> None:
    """Register a partial verdict (no-op for exhaustive coverage)."""
    if coverage != COVERAGE_EXHAUSTIVE:
        CONTEXT.events.append(
            CoverageEvent(phase, coverage, detail, instances_checked)
        )


def coverage_events() -> Tuple[CoverageEvent, ...]:
    """This thread's coverage events, in recording order."""
    return tuple(CONTEXT.events)


def reset_coverage_events() -> None:
    CONTEXT.events.clear()


@contextmanager
def coverage_scope() -> Iterator[List[CoverageEvent]]:
    """Collect the enclosed block's coverage events in isolation.

    Yields the live list the block appends into; on exit the previous
    registry is restored, so concurrent jobs on different threads (and
    nested scopes on the same thread) never see each other's partial
    verdicts.
    """
    events: List[CoverageEvent] = []
    with scope(events=events):
        yield events


#: Budget kinds raised by the governance layer (:class:`Budget`).  Only
#: these are degraded into partial verdicts by the checkers;
#: algorithm-parameter budgets (``max_nulls``, MinGen candidate caps)
#: remain hard errors because the caller asked for that exact bound.
#: A planner that *chose* a bounded algorithm on the caller's behalf
#: (e.g. an inverse check's membership plan) owes the caller a partial
#: verdict instead, so it widens the set for its sweep through the
#: context's ``governed`` field.
GOVERNED_KINDS = frozenset({"deadline", "instances", "chase_steps", "rss"})


def governed_coverage(error: BaseException) -> Optional[str]:
    """The partial-verdict ``coverage`` a checker should degrade to
    for *error*, or None when the error must propagate."""
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if isinstance(error, WorkerFault):
        return "faulted"
    if isinstance(error, BudgetExceeded) and (
        error.kind in GOVERNED_KINDS or error.kind in CONTEXT.governed
    ):
        return "budget"
    return None


# -- tuple-compatible sweep verdicts --------------------------------------


def _rebuild_sweep_verdict(
    ok: bool,
    violators: Any,
    coverage: str,
    instances_checked: int,
    orbits_checked: int = 0,
) -> "SweepVerdict":
    return SweepVerdict(
        ok,
        violators,
        coverage=coverage,
        instances_checked=instances_checked,
        orbits_checked=orbits_checked,
    )


class SweepVerdict(tuple):
    """``(ok, violators)`` plus coverage metadata.

    Unpacks exactly like the 2-tuples the sweep checkers have always
    returned (``ok, violators = sound_on(...)``) while carrying the
    ``coverage`` status and ``instances_checked`` counter of the
    fault-tolerance layer as attributes.

    ``orbits_checked`` is non-zero only for symmetry-reduced sweeps:
    the number of orbit representatives actually examined, while
    ``instances_checked`` counts the universe instances those
    representatives stand for (their summed orbit weights).
    """

    coverage: str
    instances_checked: int
    orbits_checked: int

    def __new__(
        cls,
        ok: bool,
        violators: Any,
        *,
        coverage: str = COVERAGE_EXHAUSTIVE,
        instances_checked: int = 0,
        orbits_checked: int = 0,
    ) -> "SweepVerdict":
        self = super().__new__(cls, (ok, violators))
        self.coverage = coverage
        self.instances_checked = instances_checked
        self.orbits_checked = orbits_checked
        return self

    @property
    def ok(self) -> bool:
        return self[0]

    @property
    def violators(self) -> Any:
        return self[1]

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE

    def __reduce__(self):
        return (
            _rebuild_sweep_verdict,
            (
                self[0],
                self[1],
                self.coverage,
                self.instances_checked,
                self.orbits_checked,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"SweepVerdict(ok={self[0]!r}, violators={self[1]!r}, "
            f"coverage={self.coverage!r}, "
            f"instances_checked={self.instances_checked}, "
            f"orbits_checked={self.orbits_checked})"
        )


__all__ = [
    "Budget",
    "COVERAGE_EXHAUSTIVE",
    "COVERAGE_ORDER",
    "CoverageEvent",
    "GOVERNED_KINDS",
    "SweepVerdict",
    "coverage_events",
    "coverage_scope",
    "current_budget",
    "default_budget",
    "governed_coverage",
    "record_coverage",
    "reset_coverage_events",
    "use_budget",
    "worst_coverage",
]

"""The unified error hierarchy of the library.

Historically every layer grew its own ad-hoc exception —
``ChaseError`` in the chase, ``UniverseTooLarge`` in the workloads,
``MinGenBudgetError`` / ``CompositionBudgetError`` in the core
algorithms, ``MappingError`` / ``ParseError`` in the front end — with
nothing in common but a message string.  This module re-homes all of
them under one :class:`ReproError` root so that

* callers can catch the whole library with one ``except ReproError``;
* every resource-limit failure is a :class:`BudgetExceeded` carrying
  *machine-readable* context (``kind``, ``limit``, ``consumed``), so
  the engine's fault-tolerance layer can convert it into a partial
  verdict (``coverage`` of ``"deadline"`` or ``"budget"``) instead of
  discarding completed work;
* exceptions survive a trip through a ``multiprocessing`` result
  queue with their context intact (:meth:`ReproError.__reduce__`).

Backwards compatibility: each class keeps the concrete builtin base
its predecessor had (``ValueError`` for mapping/parse/universe errors,
``RuntimeError`` for chase/budget errors), and the old defining
modules re-export the names, so pre-existing ``except`` sites keep
working unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def _rebuild_error(cls: type, message: str, context: Dict[str, Any]) -> "ReproError":
    return cls(message, **context)


class ReproError(Exception):
    """Root of every exception the library raises on purpose.

    ``context`` holds machine-readable keyword details supplied at the
    raise site (e.g. ``kind="chase_steps", limit=10_000``); it is
    preserved across process boundaries.
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = context

    @property
    def message(self) -> str:
        return self.args[0] if self.args else ""

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.message, self.context))


class MappingError(ReproError, ValueError):
    """Raised for malformed schema mappings or unsupported operations."""


class ParseError(ReproError, ValueError):
    """Raised for malformed dependency / query text."""


class ChaseError(ReproError, RuntimeError):
    """Raised when the chase cannot proceed (disjunctions, step bound)."""

    @classmethod
    def step_overflow(cls, max_steps: int) -> "ChaseError":
        """The error past *max_steps* firings, on every backend."""
        return cls(f"chase exceeded {max_steps} steps", kind="chase_steps", limit=max_steps)


class BudgetExceeded(ReproError, RuntimeError):
    """A resource limit was hit before the computation finished.

    ``kind`` names the exhausted resource (``"deadline"``,
    ``"instances"``, ``"chase_steps"``, ``"rss"``, ``"mingen"``,
    ``"composition_nulls"``, ``"universe"``); ``limit`` is the
    configured cap and ``consumed`` how much was used when the limit
    tripped.  The checkers map this onto a partial verdict rather than
    letting it propagate (see :mod:`repro.engine.budget`).
    """

    @property
    def kind(self) -> Optional[str]:
        return self.context.get("kind")

    @property
    def limit(self) -> Any:
        return self.context.get("limit")

    @property
    def consumed(self) -> Any:
        return self.context.get("consumed")


class DeadlineExceeded(BudgetExceeded):
    """The wall-clock deadline of a :class:`~repro.engine.budget.Budget`
    passed mid-computation."""


class WorkerFault(ReproError, RuntimeError):
    """A parallel worker died (or timed out) and fault recovery was
    disabled (``on_fault="raise"``), so the sweep could not finish."""


class UniverseTooLarge(BudgetExceeded, ValueError):
    """Raised when a requested instance universe exceeds its cap."""


class MinGenBudgetError(BudgetExceeded):
    """Raised when a MinGen search exceeds its configured budget."""


class CompositionBudgetError(BudgetExceeded):
    """Raised when a composition-membership check would enumerate too
    many candidate intermediate instances."""


class FaultSpecError(ReproError, ValueError):
    """A fault-injection spec (``REPRO_FAULTS`` or a
    :func:`~repro.engine.faults.fault_scope` argument) is malformed.

    Raised eagerly — when the fault plane is first consulted — so a
    typo in a chaos schedule aborts the run at startup instead of
    silently injecting nothing.  ``context`` carries the offending
    ``spec`` and, when applicable, the ``clause`` and ``point``.
    """


class ServiceError(ReproError, RuntimeError):
    """Root of the checking-service taxonomy (daemon, queue, client)."""


class ServiceProtocolError(ServiceError, ValueError):
    """A malformed job payload or request (the daemon answers HTTP 400).

    Raised at *submit* time — unknown job kinds, unparsable inline
    mappings (wrapping the underlying :class:`ParseError`), missing
    catalog names, bad option types — so invalid work is rejected
    before it ever reaches the queue.
    """


class JobNotFound(ServiceError, KeyError):
    """No job with the requested id (the daemon answers HTTP 404)."""


class ServiceUnavailable(ServiceError, ConnectionError):
    """The daemon could not be reached (connection refused, timeout,
    or no endpoint file in the state directory)."""


__all__ = [
    "BudgetExceeded",
    "ChaseError",
    "CompositionBudgetError",
    "DeadlineExceeded",
    "FaultSpecError",
    "JobNotFound",
    "MappingError",
    "MinGenBudgetError",
    "ParseError",
    "ReproError",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceUnavailable",
    "UniverseTooLarge",
    "WorkerFault",
]

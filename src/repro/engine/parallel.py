"""Deterministic, fault-tolerant parallel fan-out over instance universes.

A :class:`ParallelUniverseRunner` chunks a stream of work items (most
often instances from :func:`repro.workloads.power_instances`, or the
per-instance tasks of a bounded checker) across a ``multiprocessing``
pool and merges results back in input order, so every caller sees
exactly the sequence a serial loop would produce.

Rules that keep this safe and reproducible:

* the pool uses the ``fork`` start method and is created *after* the
  shared context is published, so workers inherit large read-only
  payloads (universes, witness pools, mappings) for free instead of
  pickling them per task;
* work is dispatched as per-chunk ``apply_async`` calls and *supervised*
  from the parent — never a bare ``imap``, which hangs forever when a
  forked worker is OOM-killed.  The supervision loop polls each chunk
  with a short interval and watches for (a) worker death (a pool pid
  vanishing or reporting an exit code), (b) a per-chunk timeout
  (``REPRO_TASK_TIMEOUT``), and (c) budget expiry in the parent;
* when a fault is detected the pool is condemned: chunks that already
  completed cleanly are harvested, and every other chunk — including
  whatever the dead worker was holding — is **re-executed serially in
  the parent**, so the merged result sequence is byte-identical to a
  serial run despite the fault.  With ``on_fault="raise"`` the runner
  raises :class:`~repro.errors.WorkerFault` instead, which checkers
  convert into a ``coverage == "faulted"`` partial verdict;
* a task that *raises* inside a worker is replayed serially in the
  parent at its exact merge position, so exceptions surface with the
  same ordering and type a serial loop would produce;
* with ``workers <= 1``, on platforms without ``fork``, or inside an
  existing worker, the runner degrades to a plain serial loop over
  the same task function, which is how serial/parallel equivalence is
  guaranteed by construction.

Deterministic fault injection (tests only; the ``worker.kill`` and
``worker.delay`` points of the unified fault plane — see
:mod:`repro.engine.faults` — act **inside workers only**, so
parent-side recovery is never itself faulted):

* ``worker.kill`` (e.g. ``REPRO_FAULTS="worker.kill:task=<i>"``) — the
  worker that picks up the matching task SIGKILLs itself first
  (simulates the OOM killer);
* ``worker.delay`` (e.g. ``REPRO_FAULTS="worker.delay:task=<i|*>,seconds=<s>"``)
  — the worker sleeps before running the task (simulates a straggler;
  pair with a small ``REPRO_TASK_TIMEOUT`` to exercise timeout
  recovery).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.engine import faults
from repro.engine.budget import Budget, current_budget
from repro.engine.cache import flush_active_store
from repro.engine.context import CONTEXT, scope, snapshot
from repro.engine.instrumentation import engine_stats
from repro.errors import WorkerFault

Item = TypeVar("Item")
Result = TypeVar("Result")


# Forking from a multi-threaded daemon while another thread is mid-way
# through creating its own pool is the classic fork/threads hazard;
# serializing pool construction keeps the supervised fork pool usable
# from concurrent service jobs.  Held only for the (quick) fork+spawn
# of the workers, never while chunks run.
_POOL_CREATE_LOCK = threading.Lock()

_POLL_INTERVAL = 0.02


def get_shared() -> Any:
    """The context published by the current :meth:`map` call (task
    functions running in workers read their big arguments here)."""
    return CONTEXT.shared


def _worker_init(
    shared: Any, task: Callable[[Any], Any], inherited: Dict[str, Any]
) -> None:
    # Forked workers inherit the parent's signal dispositions.  A host
    # that traps SIGTERM (the service daemon's graceful-drain handler)
    # would make Pool.terminate()'s SIGTERM a no-op in the children and
    # hang the terminating join forever — reset to the defaults so the
    # pool can always be torn down, and ignore SIGINT so Ctrl-C is
    # handled once, by the parent.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread or exotic platform
        pass
    # The context is per-thread, and a pool may fork replacement
    # workers from its own handler thread, so every worker installs
    # the sweeping thread's snapshot for its lifetime (the intern
    # table is inherited with the fork).
    vars(CONTEXT).update(inherited, shared=shared, task=task, in_worker=True)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """The worker count of a runner given none: ``REPRO_WORKERS`` or
    the CLI's ``--workers`` (see :mod:`repro.engine.context`), else 1
    — parallelism is opt-in because fork-based fan-out only pays off
    on universes large enough to amortize it."""
    return CONTEXT.workers


def default_task_timeout() -> Optional[float]:
    """Per-chunk supervision timeout: ``REPRO_TASK_TIMEOUT`` seconds,
    else 300; None (set as 0) disables it."""
    return CONTEXT.task_timeout


def _apply_fault_hooks(index: int) -> None:
    """Worker-side fault injection (see module docstring)."""
    if faults.fire("worker.kill", index=index) is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    delay = faults.fire("worker.delay", index=index)
    if delay is not None and delay.seconds > 0:
        time.sleep(delay.seconds)


def _supervised_call(batch: Sequence[Tuple[int, Any]]) -> List[Any]:
    """Pool entry point: run the installed task over one chunk."""
    task = CONTEXT.task
    assert task is not None
    results: List[Any] = []
    for index, item in batch:
        _apply_fault_hooks(index)
        results.append(task(item))
    # Persist this chunk's chase/verdict traffic before the worker is
    # potentially recycled — the store's writes are multi-process safe.
    flush_active_store()
    return results


class ParallelUniverseRunner:
    """Maps a task function over items with deterministic merge order
    and supervised fault recovery (see module docstring).

    *on_fault* selects the recovery policy for dead/stuck workers:
    ``"retry"`` (default; also via ``REPRO_ON_FAULT``) re-executes
    affected chunks serially in the parent, ``"raise"`` raises
    :class:`WorkerFault` at the first fault.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        chunk_size: Optional[int] = None,
        task_timeout: Optional[float] = None,
        on_fault: Optional[str] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.chunk_size = chunk_size
        self.task_timeout = (
            default_task_timeout() if task_timeout is None else
            (task_timeout if task_timeout > 0 else None)
        )
        self.on_fault = on_fault or CONTEXT.on_fault
        if self.on_fault not in ("retry", "raise"):
            raise ValueError(f"on_fault must be 'retry' or 'raise', got {self.on_fault!r}")

    @property
    def parallel(self) -> bool:
        return self.workers > 1 and fork_available() and not CONTEXT.in_worker

    def map(
        self,
        task: Callable[[Item], Result],
        items: Iterable[Item],
        *,
        shared: Any = None,
        budget: Optional[Budget] = None,
    ) -> List[Result]:
        """``[task(item) for item in items]`` with optional fan-out.

        *task* must be a module-level (picklable) callable when the
        runner is parallel; *shared* is published through
        :func:`get_shared` in both modes.  Results always come back in
        input order.
        """
        return list(self.map_iter(task, items, shared=shared, budget=budget))

    def map_iter(
        self,
        task: Callable[[Item], Result],
        items: Iterable[Item],
        *,
        shared: Any = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[Result]:
        """Lazy :meth:`map`: results stream back in input order.

        In serial mode each task runs only when its result is
        consumed, so a caller that stops early (a checker returning at
        the first violation) does no extra work; in parallel mode the
        pool races ahead but abandoning the iterator tears it down.

        *budget* (default: the ambient one) is charged one instance
        per merged result and its deadline/RSS limits are checked
        between results; workers inherit it through the pool
        initializer so chase-step caps apply inside tasks too.
        """
        stats = engine_stats()
        if budget is None:
            budget = current_budget()
        count = 0
        try:
            with scope(shared=shared):
                if not self.parallel:
                    with stats.phase("universe.serial"):
                        for item in items:
                            if budget is not None:
                                budget.charge_instances()
                            yield task(item)
                            count += 1
                    return
                materialized: Sequence[Item] = (
                    items if isinstance(items, (list, tuple)) else list(items)
                )
                with stats.phase("universe.parallel"):
                    for result in self._supervised_map(
                        task, materialized, shared, budget
                    ):
                        if budget is not None:
                            budget.charge_instances()
                        yield result
                        count += 1
        finally:
            stats.count_instances(count)
            flush_active_store()

    # -- supervised parallel dispatch --------------------------------

    def _supervised_map(
        self,
        task: Callable[[Item], Result],
        materialized: Sequence[Item],
        shared: Any,
        budget: Optional[Budget],
    ) -> Iterator[Result]:
        chunk = self.chunk_size or max(
            1, len(materialized) // (self.workers * 4)
        )
        indexed = list(enumerate(materialized))
        batches: List[List[Tuple[int, Item]]] = [
            indexed[start : start + chunk]
            for start in range(0, len(indexed), chunk)
        ]
        context = multiprocessing.get_context("fork")
        with _POOL_CREATE_LOCK:
            pool = context.Pool(
                processes=self.workers,
                initializer=_worker_init,
                initargs=(shared, task, dict(snapshot(), budget=budget)),
            )
        pool_alive = True
        condemned = False
        try:
            known_pids = self._worker_pids(pool)
            pending = [
                pool.apply_async(_supervised_call, (batch,)) for batch in batches
            ]
            for batch, async_result in zip(batches, pending):
                batch_results: Optional[List[Result]] = None
                if pool_alive and not condemned:
                    outcome = self._await(async_result, pool, known_pids, budget)
                    if outcome == "ready":
                        try:
                            batch_results = async_result.get()
                        except Exception:
                            # The task genuinely raised inside the worker.
                            # Replay serially below so the exception
                            # surfaces at its exact serial merge position.
                            batch_results = None
                    else:
                        engine_stats().count_worker_fault()
                        if self.on_fault == "raise":
                            raise WorkerFault(
                                f"pool worker fault ({outcome}) while "
                                f"processing tasks "
                                f"{batch[0][0]}..{batch[-1][0]}",
                                kind=outcome,
                                first_task=batch[0][0],
                            )
                        condemned = True
                        pool.terminate()
                        pool.join()
                        pool_alive = False
                if batch_results is None and condemned and not pool_alive:
                    # Harvest chunks that completed before condemnation.
                    if async_result.ready():
                        try:
                            batch_results = async_result.get()
                        except Exception:
                            batch_results = None
                if batch_results is not None:
                    yield from batch_results
                else:
                    # Serial re-execution in the parent: recovers work
                    # lost to dead/stuck workers and replays genuine
                    # task exceptions in serial order.  Fault-injection
                    # hooks are worker-only, so recovery is clean.
                    for _, item in batch:
                        yield task(item)
        finally:
            if pool_alive:
                pool.terminate()
                pool.join()

    def _await(
        self,
        async_result: Any,
        pool: Any,
        known_pids: Optional[set],
        budget: Optional[Budget],
    ) -> str:
        """Wait for one chunk: ``"ready"`` | ``"died"`` | ``"timeout"``."""
        started = time.monotonic()
        while True:
            async_result.wait(_POLL_INTERVAL)
            if async_result.ready():
                return "ready"
            if budget is not None:
                budget.check()  # propagates DeadlineExceeded to the merge
            if known_pids is not None and self._pool_faulted(pool, known_pids):
                return "died"
            if (
                self.task_timeout is not None
                and time.monotonic() - started > self.task_timeout
            ):
                return "timeout"

    @staticmethod
    def _worker_pids(pool: Any) -> Optional[set]:
        processes = getattr(pool, "_pool", None)
        if processes is None:
            return None
        return {process.pid for process in processes}

    @staticmethod
    def _pool_faulted(pool: Any, known_pids: set) -> bool:
        """Did any worker die?  Catches both a just-dead worker (exit
        code set) and one the pool already replaced (pid set drift)."""
        processes = list(getattr(pool, "_pool", ()) or ())
        if any(process.exitcode is not None for process in processes):
            return True
        return {process.pid for process in processes} != known_pids

"""Deterministic, fault-tolerant parallel fan-out over instance universes.

A :class:`ParallelUniverseRunner` chunks a stream of work items (most
often instances from :func:`repro.workloads.power_instances`, or the
per-instance tasks of a bounded checker) across forked worker
processes and merges results back in input order, so every caller sees
exactly the sequence a serial loop would produce.

Rules that keep this safe and reproducible:

* the sweeping thread forks the workers itself (the ``fork`` start
  method) *after* the shared context is published, so each worker
  holds that thread's engine context and inherits large read-only
  payloads (universes, witness pools, mappings) for free instead of
  pickling them per task;
* each worker has a private pipe.  The parent hands every idle worker
  the next chunk and *supervises* them all with one
  ``multiprocessing.connection.wait`` on the pipes and the process
  sentinels, polling with a short interval for (a) worker death (a
  fired sentinel, or a failed send or receive, on a worker holding a
  chunk), (b) a per-chunk timeout (``REPRO_TASK_TIMEOUT``, counted
  from the chunk's send), and (c) budget expiry in the parent;
* at the first fault the workers are condemned: chunks that already
  came back are kept, and every other chunk — including whatever the
  dead worker was holding — is **re-executed serially in the
  parent**, so the merged result sequence is byte-identical to a
  serial run despite the fault.  With ``on_fault="raise"`` the runner
  raises :class:`~repro.errors.WorkerFault` instead, which checkers
  convert into a ``coverage == "faulted"`` partial verdict;
* a task that *raises* inside a worker, or whose results do not
  pickle, is replayed serially in the parent at its exact merge
  position, so exceptions surface with the same ordering and type a
  serial loop would produce;
* every way out of a map kills the workers (SIGKILL) and reaps them,
  so no worker is left holding a lock another process needs, and no
  signal trap a worker inherited can keep it alive;
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
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.engine import faults
from repro.engine.budget import Budget, current_budget
from repro.engine.cache import flush_active_store
from repro.engine.context import CONTEXT, scope
from repro.engine.instrumentation import engine_stats
from repro.errors import WorkerFault

Item = TypeVar("Item")
Result = TypeVar("Result")


# A worker forked by another thread while this map's child pipe ends
# are still open in the parent would hold them, and a death of this
# map's worker would then go unseen on its pipe; serializing the forks
# keeps the runner usable from concurrent service jobs.  Held only
# while the workers are forked, never while chunks run.
_POOL_CREATE_LOCK = threading.Lock()

_POLL_INTERVAL = 0.02


def get_shared() -> Any:
    """The context published by the current :meth:`map` call (task
    functions running in workers read their big arguments here)."""
    return CONTEXT.shared


#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """On Linux, have the kernel SIGKILL this worker when the thread
    that forked it exits.  That thread kills its workers on every way
    out of a map, but a parent killed outright would otherwise leave
    them to finish their chunks as orphans.  Other platforms keep
    running."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            return
    except (AttributeError, OSError):
        return
    if os.getppid() != parent:  # the parent died before the prctl
        os.kill(os.getpid(), signal.SIGKILL)


def _worker(
    connection: Any,
    task: Callable[[Any], Any],
    budget: Optional[Budget],
    parent: int,
) -> None:
    """A worker's life: run each chunk the parent sends, and send back
    its results, or None when the task raised or its results do not
    pickle, so that the parent replays the chunk.  The sweeping thread
    forked it, so its context already holds that thread's fields and
    shared payload.  The parent kills it when the map ends."""
    _die_with_parent(parent)
    # A forked worker inherits the parent's signal traps: restore
    # SIGTERM's default so a worker sent one dies (the daemon's drain
    # trap would wake the daemon's event loop through the wakeup fd
    # the two share, and drain it), and ignore SIGINT so Ctrl-C is
    # handled once, by the parent.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    vars(CONTEXT).update(task=task, budget=budget, in_worker=True)
    while True:
        try:
            batch = connection.recv()
        except EOFError:  # the parent is gone
            return
        try:
            # looked up at each call, so a patched one reaches workers
            connection.send(_supervised_call(batch))
        except Exception:
            connection.send(None)


def _kill(workers: Dict[Any, Any]) -> None:
    """Kill and reap every worker of *workers* (pipe end -> process),
    close its pipe, and empty the table."""
    for process in workers.values():
        process.kill()
    for connection, process in workers.items():
        process.join()
        connection.close()
    workers.clear()


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
    """Run the installed task over one chunk, in a worker."""
    task = CONTEXT.task
    assert task is not None
    results: List[Any] = []
    for index, item in batch:
        _apply_fault_hooks(index)
        results.append(task(item))
    # Persist this chunk's chase/verdict traffic before the worker is
    # killed — the store's writes are multi-process safe.
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
        workers race ahead, but abandoning the iterator kills them.

        *budget* (default: the ambient one) is charged one instance
        per merged result and its deadline/RSS limits are checked
        between results; every worker installs it, so chase-step caps
        apply inside tasks too.
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
                    for result in self._supervised_map(task, materialized, budget):
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
        from multiprocessing.connection import wait

        context = multiprocessing.get_context("fork")
        # Chunks go by their number, their position in *batches*.
        workers: Dict[Any, Any] = {}  # the parent's pipe end -> its worker
        held: Dict[Any, Tuple[int, float]] = {}  # pipe end -> (chunk, sent at)
        done: Dict[int, Optional[List[Result]]] = {}  # None: replay the chunk
        idle: List[Any] = []
        unsent = iter(range(len(batches)))

        def poll() -> Optional[Tuple[str, int]]:
            """Take the replies that came back, then hand each idle
            worker the next chunk; the first fault seen, as its kind
            and the number of the chunk it hit, else None."""
            if budget is not None:
                budget.check()  # propagates DeadlineExceeded to the merge
            sentinels = {workers[connection].sentinel for connection in held}
            ready = set(wait([*held, *sentinels], _POLL_INTERVAL)) if held else set()
            now = time.monotonic()
            for connection, (number, sent) in list(held.items()):
                if workers[connection].sentinel in ready:
                    return "died", number
                if connection in ready:
                    try:
                        done[number] = connection.recv()
                    except (EOFError, OSError):
                        return "died", number
                    del held[connection]
                    idle.append(connection)
                elif self.task_timeout is not None and now - sent > self.task_timeout:
                    return "timeout", number
            while idle and (number := next(unsent, None)) is not None:
                connection = idle.pop()
                held[connection] = (number, time.monotonic())
                try:
                    connection.send(batches[number])
                except OSError:
                    return "died", number
            return None

        try:
            with _POOL_CREATE_LOCK:
                for _ in range(min(self.workers, len(batches), os.cpu_count() or 1)):
                    connection, child_end = context.Pipe()
                    process = context.Process(
                        target=_worker,
                        args=(child_end, task, budget, os.getpid()),
                        daemon=True,
                    )
                    process.start()
                    child_end.close()
                    workers[connection] = process
            idle.extend(workers)
            for position, batch in enumerate(batches):
                while workers and position not in done:
                    fault = poll()
                    if fault is None:
                        continue
                    kind, faulted = fault
                    engine_stats().count_worker_fault()
                    if self.on_fault == "raise":
                        first, last = batches[faulted][0][0], batches[faulted][-1][0]
                        raise WorkerFault(
                            f"worker fault ({kind}) while processing tasks "
                            f"{first}..{last}",
                            kind=kind,
                            first_task=first,
                        )
                    _kill(workers)
                results = done.get(position)
                if results is not None:
                    yield from results
                else:
                    # Serial re-execution in the parent: recovers work
                    # lost to dead/stuck workers and replays genuine
                    # task exceptions in serial order.  Fault-injection
                    # hooks are worker-only, so recovery is clean.
                    for _, item in batch:
                        yield task(item)
        finally:
            _kill(workers)

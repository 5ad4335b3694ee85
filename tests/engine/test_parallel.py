"""Determinism of the universe runner.  That every bounded checker
reports the same under 2, 3 and 4 workers is a row of the parity
harness (``tests/test_parity.py``)."""

import ctypes
import os
import signal
import sys
import threading

import pytest

from repro.engine import (
    ParallelUniverseRunner,
    default_workers,
    fork_available,
    parallel,
    set_defaults,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

WORKER_COUNTS = [2, 3, 4]


class TestRunner:
    def test_serial_map_preserves_order(self):
        runner = ParallelUniverseRunner(workers=1)
        assert not runner.parallel
        assert runner.map(lambda x: x * x, range(10)) == [i * i for i in range(10)]

    @needs_fork
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_map_matches_serial(self, workers):
        runner = ParallelUniverseRunner(workers=workers, chunk_size=3)
        assert runner.map(len, [(i,) * (i % 5) for i in range(40)]) == [
            i % 5 for i in range(40)
        ]

    def test_serial_map_iter_is_lazy(self):
        produced = []

        def task(item):
            produced.append(item)
            return item

        runner = ParallelUniverseRunner(workers=1)
        stream = runner.map_iter(task, range(100))
        assert next(stream) == 0
        stream.close()
        assert produced == [0]  # nothing beyond the consumed prefix

    def test_default_workers_round_trip(self):
        original = default_workers()
        previous = set_defaults(workers=3)
        try:
            assert previous == {"workers": original}
            assert default_workers() == 3
            assert ParallelUniverseRunner().workers == 3
        finally:
            set_defaults(**previous)
        assert default_workers() == original


@needs_fork
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_only_the_sweeping_threads_workers_die_with_it():
    """A worker the sweeping thread forks gets SIGKILL when that thread
    exits; one forked by another thread, as the pool's handler thread
    forks replacements, does not, since that thread exits while
    ``Pool.terminate()`` still needs the workers' queue locks."""
    sweeper = threading.get_ident()

    def parent_death_signal():
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            parallel._die_with_parent(os.getppid(), sweeper)
            value = ctypes.c_int()
            ctypes.CDLL(None).prctl(2, ctypes.byref(value), 0, 0, 0)  # PR_GET_PDEATHSIG
            os.write(write, bytes([value.value]))
            os._exit(0)
        os.close(write)
        os.waitpid(pid, 0)
        with os.fdopen(read, "rb") as pipe:
            return pipe.read()[0]

    elsewhere = []
    helper = threading.Thread(target=lambda: elsewhere.append(parent_death_signal()))
    helper.start()
    helper.join()
    assert (parent_death_signal(), elsewhere) == (signal.SIGKILL, [0])


@needs_fork
@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="needs per-thread signal masks")
class TestSigtermBeforeTheWorkerResetsItsHandler:
    """A host that traps SIGTERM (the service daemon's drain handler)
    hands the trap to each worker it forks until ``_worker_init``
    restores the default.  A ``Pool.terminate()`` that lands first must
    still kill the worker; a worker that lived on waited for the task
    queue's lock, which ``terminate()`` holds, and ``terminate()``
    joined it forever."""

    @pytest.fixture(autouse=True)
    def trapped(self):
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        yield
        signal.signal(signal.SIGTERM, previous)

    @staticmethod
    def _own_pids():
        runner = ParallelUniverseRunner(workers=2, chunk_size=1, on_fault="retry")
        return runner.map(lambda _: os.getpid(), range(4))

    def test_a_worker_dies_of_it(self, monkeypatch):
        def early_signal(parent, sweeper):
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(parallel, "_die_with_parent", early_signal)
        # no worker ran a chunk: the parent replayed each one itself
        assert self._own_pids() == [os.getpid()] * 4

    def test_a_replacement_dies_of_it(self, monkeypatch):
        def early_signal(parent, sweeper):
            # the sweeping thread's workers die at once, so the pool's
            # handler thread forks replacements, which get the SIGTERM
            doomed = threading.get_ident() == sweeper
            os.kill(os.getpid(), signal.SIGKILL if doomed else signal.SIGTERM)

        monkeypatch.setattr(parallel, "_die_with_parent", early_signal)
        # the replacements are forked long before the parent first looks
        monkeypatch.setattr(parallel, "_POLL_INTERVAL", 0.5)
        assert self._own_pids() == [os.getpid()] * 4

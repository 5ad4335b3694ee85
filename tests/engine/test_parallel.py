"""Determinism and supervision of the universe runner.  That every
bounded checker reports the same under 2, 3 and 4 workers is a row of
the parity harness (``tests/test_parity.py``)."""

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import (
    ParallelUniverseRunner,
    default_workers,
    engine_stats,
    fork_available,
    parallel,
    set_defaults,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

REPO_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

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


def _pid_and_death_signal(_):
    signum = ctypes.c_int()
    ctypes.CDLL(None).prctl(2, ctypes.byref(signum), 0, 0, 0)  # PR_GET_PDEATHSIG
    return os.getpid(), signum.value


def _lock_at_three(item):
    return threading.Lock() if item == 3 else item


def _napping_pid(_):
    time.sleep(0.05)
    return os.getpid()


@needs_fork
class TestWorkers:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
    def test_every_worker_dies_with_the_sweeping_thread(self):
        results = []
        runner = ParallelUniverseRunner(workers=2, chunk_size=1)
        sweeper = threading.Thread(
            target=lambda: results.extend(runner.map(_pid_and_death_signal, range(4)))
        )
        sweeper.start()
        sweeper.join(timeout=120)
        assert not sweeper.is_alive() and len(results) == 4
        for pid, signum in results:
            assert pid != os.getpid() and signum == signal.SIGKILL

    def test_workers_that_die_before_their_first_chunk(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "_die_with_parent", lambda parent: os.kill(os.getpid(), signal.SIGKILL)
        )
        runner = ParallelUniverseRunner(workers=2, chunk_size=1, on_fault="retry")
        for _ in range(10):  # a send to a worker already dead must not raise
            assert runner.map(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4

    def test_a_result_that_does_not_pickle_is_replayed_without_a_fault(self):
        engine_stats().reset()
        runner = ParallelUniverseRunner(workers=2, chunk_size=1, on_fault="raise")
        results = runner.map(_lock_at_three, range(6))
        # a lock cannot leave a worker, so the parent ran item 3 itself
        assert results[:3] + results[4:] == [0, 1, 2, 4, 5]
        assert isinstance(results[3], type(threading.Lock()))
        assert engine_stats().worker_faults == 0

    def test_the_fork_count_is_bounded_by_the_host(self):
        cpus = os.cpu_count() or 1
        runner = ParallelUniverseRunner(workers=cpus + 2, chunk_size=1)
        pids = runner.map(_napping_pid, range(16))
        assert os.getpid() not in pids
        assert len(set(pids)) <= cpus


def _run_script(script, *args):
    """Run *script* in a fresh interpreter; a hang dumps its stack and
    fails instead of hanging the suite."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    completed = subprocess.run(
        [sys.executable, "-c", "import faulthandler\n"
         "faulthandler.dump_traceback_later(90, exit=True)\n" + script, *args],
        env=dict(env, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout


_IGNORES_SIGTERM = """
import multiprocessing, signal, time
from repro.engine import ParallelUniverseRunner

def task(item):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    if item:
        time.sleep(3)
    return item

stream = ParallelUniverseRunner(workers=2, chunk_size=1).map_iter(task, range(4))
assert next(stream) == 0
started = time.monotonic()
stream.close()
print(time.monotonic() - started, len(multiprocessing.active_children()))
"""

_DIES_AFTER_REPLY = """
import signal, sys, time
from repro.engine import ParallelUniverseRunner, engine_stats, parallel

supervised_call = parallel._supervised_call

def dies_after_reply(batch):
    results = supervised_call(batch)
    if batch[0][0] == 2:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.0001)
    return results

def task(item):
    # slow enough that chunks are left for the dead worker to be sent
    time.sleep(0.005)
    return abs(item)

parallel._supervised_call = dies_after_reply
for _ in range(int(sys.argv[1])):
    engine_stats().reset()
    runner = ParallelUniverseRunner(workers=2, chunk_size=1)
    assert runner.map(task, range(-8, 8)) == [abs(i) for i in range(-8, 8)]
    assert engine_stats().worker_faults >= 1, "the dead worker went unseen"
"""

_CONCURRENT_MAPS = """
import os, threading
from repro.engine import ParallelUniverseRunner, engine_stats

os.environ["REPRO_FAULTS"] = "worker.kill:task=3"
results = []

def sweep():
    for _ in range(10):
        runner = ParallelUniverseRunner(workers=3, chunk_size=1)
        results.append(runner.map(abs, range(-16, 16)))

threads = [threading.Thread(target=sweep) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert results == [[abs(i) for i in range(-16, 16)]] * 40
assert engine_stats().worker_faults == 40
"""


@needs_fork
class TestTeardown:
    """Each case runs in its own interpreter, since its failure mode is
    a hang."""

    def test_teardown_does_not_wait_for_a_worker_that_ignores_sigterm(self):
        seconds, children = _run_script(_IGNORES_SIGTERM).split()
        assert float(seconds) < 1.0
        assert children == "0"

    def test_a_worker_killed_just_after_it_replies(self):
        _run_script(_DIES_AFTER_REPLY, "20")

    def test_concurrent_maps_each_see_their_dead_worker(self):
        # Forks from concurrent maps are serialized, so no worker holds
        # another map's pipe or sentinel ends, which would hide a death
        # from that map until its task timeout.
        _run_script(_CONCURRENT_MAPS)
